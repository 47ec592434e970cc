package gossip

import (
	"fmt"
	"testing"

	"gossip/internal/check"
	"gossip/internal/graph"
)

// TestBroadcastInvariants checks the model's physics on every broadcast
// protocol and family: information never outruns latency (causality), all
// nodes get informed (coverage), and metrics are internally consistent.
func TestBroadcastInvariants(t *testing.T) {
	families := []struct {
		name string
		g    *Graph
	}{
		{name: "clique", g: Clique(24, 2)},
		{name: "path", g: graph.Path(16, 5)},
		{name: "ringcliques", g: RingOfCliques(4, 6, 7)},
		{name: "dumbbell", g: Dumbbell(8, 12)},
		{name: "mixed", g: graph.RandomLatencies(graph.GNP(20, 0.3, 1, true, 3), 1, 9, 3)},
		{name: "torus", g: graph.Torus(4, 4, 3)},
	}
	protos := []struct {
		name string
		run  func(g *Graph, seed uint64) (BroadcastResult, error)
	}{
		{name: "pushpull", run: func(g *Graph, seed uint64) (BroadcastResult, error) {
			return RunPushPull(g, 0, Options{Seed: seed})
		}},
		{name: "flood", run: func(g *Graph, seed uint64) (BroadcastResult, error) {
			return RunFlood(g, 0, Options{Seed: seed})
		}},
	}
	for _, f := range families {
		for _, p := range protos {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", p.name, f.name, seed), func(t *testing.T) {
					res, err := p.run(f.g, seed)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if err := check.Causality(f.g, 0, res.InformedAt); err != nil {
						t.Error(err)
					}
					if err := check.Coverage(res.InformedAt, nil); err != nil {
						t.Error(err)
					}
					if err := check.Metrics(res.Metrics); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestTraceInvariantOnProtocols replays real engine traces of the main
// protocols through the delivery-model checker.
func TestTraceInvariantOnProtocols(t *testing.T) {
	g := RingOfCliques(3, 5, 4)
	var rec Recorder
	if _, err := RunPushPull(g, 0, Options{Seed: 5, Trace: rec.Tracer()}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := check.TraceConsistency(rec.Events, false); err != nil {
		t.Error(err)
	}
}
