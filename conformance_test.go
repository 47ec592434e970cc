package gossip

import (
	"fmt"
	"testing"

	"gossip/internal/check"
	"gossip/internal/core"
)

// TestConformanceMatrix sweeps the engine options (delivery model, crashes,
// bounded in-degree) against the option-insensitive broadcast protocols and
// asserts the model invariants hold in every combination — the engine's
// feature interactions are where regressions hide.
func TestConformanceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running conformance sweep")
	}
	g := RingOfCliques(4, 6, 3)
	crashSet := map[NodeID]int{1: 4, 9: 4} // interior nodes; survivors stay connected
	optionSets := []struct {
		name string
		opts Options
	}{
		{name: "base", opts: Options{Seed: 3}},
		{name: "full-rtt", opts: Options{Seed: 3, FullRTTDelivery: true}},
		{name: "crashes", opts: Options{Seed: 3, Crashes: crashSet}},
		{name: "bounded-indegree", opts: Options{Seed: 3, MaxResponsesPerRound: 2, MaxRounds: 100000}},
		{name: "crashes+bounded", opts: Options{Seed: 3, Crashes: crashSet, MaxResponsesPerRound: 2, MaxRounds: 100000}},
		{name: "nhint", opts: Options{Seed: 3, NHint: 64}},
	}
	protos := []struct {
		name string
		run  func(opts Options) (BroadcastResult, error)
	}{
		{name: "pushpull", run: func(o Options) (BroadcastResult, error) { return RunPushPull(g, 0, o) }},
		{name: "flood", run: func(o Options) (BroadcastResult, error) { return RunFlood(g, 0, o) }},
	}
	for _, p := range protos {
		for _, os := range optionSets {
			t.Run(fmt.Sprintf("%s/%s", p.name, os.name), func(t *testing.T) {
				var rec Recorder
				opts := os.opts
				opts.Trace = rec.Tracer()
				res, err := p.run(opts)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if !res.Completed {
					t.Fatal("broadcast incomplete")
				}
				crashed := func(v NodeID) bool {
					_, ok := opts.Crashes[v]
					return ok
				}
				if err := check.Coverage(res.InformedAt, func(v NodeID) bool { return !crashed(v) }); err != nil {
					t.Error(err)
				}
				// Causality only binds under the split delivery model (the
				// full-RTT variant is strictly slower, so it holds there too).
				if err := check.Causality(g, 0, res.InformedAt); err != nil {
					t.Error(err)
				}
				if err := check.Metrics(res.Metrics); err != nil {
					t.Error(err)
				}
				if err := check.TraceConsistency(rec.Events, opts.FullRTTDelivery); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestConformanceAllToAll sweeps the same options against anti-entropy.
func TestConformanceAllToAll(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running conformance sweep")
	}
	g := RingOfCliques(3, 6, 2)
	for _, opts := range []Options{
		{Seed: 5},
		{Seed: 5, FullRTTDelivery: true},
		{Seed: 5, Crashes: map[NodeID]int{2: 3}},
		{Seed: 5, MaxResponsesPerRound: 1, MaxRounds: 200000},
	} {
		res, err := core.PushPullAllToAll(g, opts.simConfig())
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if !res.Completed {
			t.Errorf("opts %+v: anti-entropy did not converge", opts)
		}
		if err := check.Metrics(res.Metrics); err != nil {
			t.Error(err)
		}
	}
}
