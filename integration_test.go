package gossip

import (
	"fmt"
	"testing"

	"gossip/internal/graph"
)

// TestIntegrationMatrix runs every dissemination protocol against every
// graph family and requires completion — the broad compatibility sweep a
// downstream user implicitly relies on.
func TestIntegrationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("integration matrix is long-running")
	}
	families := []struct {
		name string
		g    *Graph
	}{
		{name: "clique", g: Clique(12, 1)},
		{name: "star", g: graph.Star(12, 2)},
		{name: "path", g: graph.Path(10, 3)},
		{name: "cycle", g: graph.Cycle(10, 2)},
		{name: "grid", g: graph.Grid(3, 4, 2)},
		{name: "torus", g: graph.Torus(3, 4, 1)},
		{name: "hypercube", g: graph.Hypercube(3, 2)},
		{name: "tree", g: graph.CompleteBinaryTree(15, 1)},
		{name: "caterpillar", g: graph.Caterpillar(4, 2, 2)},
		{name: "ringcliques", g: RingOfCliques(3, 4, 3)},
		{name: "dumbbell", g: Dumbbell(6, 5)},
		{name: "randreg", g: graph.RandomRegular(14, 4, 2, 7)},
		{name: "gnp", g: graph.GNP(14, 0.3, 1, true, 7)},
		{name: "mixed", g: graph.RandomLatencies(graph.GNP(12, 0.4, 1, true, 9), 1, 5, 9)},
	}
	type proto struct {
		name string
		run  func(g *Graph, d int) (bool, error)
	}
	opts := Options{Seed: 31}
	protos := []proto{
		{name: "pushpull", run: func(g *Graph, d int) (bool, error) {
			r, err := RunPushPull(g, 0, opts)
			return r.Completed, err
		}},
		{name: "flood", run: func(g *Graph, d int) (bool, error) {
			r, err := RunFlood(g, 0, opts)
			return r.Completed, err
		}},
		{name: "dtg", run: func(g *Graph, d int) (bool, error) {
			r, err := RunLocalBroadcast(g, d, opts)
			return r.Completed, err
		}},
		{name: "rr", run: func(g *Graph, d int) (bool, error) {
			r, err := RunRRBroadcast(g, d, 0, opts)
			return r.Completed, err
		}},
		{name: "eid", run: func(g *Graph, d int) (bool, error) {
			r, err := RunEID(g, d, opts)
			return r.Completed, err
		}},
		{name: "generaleid", run: func(g *Graph, d int) (bool, error) {
			r, err := RunGeneralEID(g, opts)
			return r.Completed, err
		}},
		{name: "tseq", run: func(g *Graph, d int) (bool, error) {
			r, err := RunTSequence(g, d, opts)
			return r.Completed, err
		}},
		{name: "pathdiscovery", run: func(g *Graph, d int) (bool, error) {
			r, err := RunPathDiscovery(g, opts)
			return r.Completed, err
		}},
		{name: "discovereid", run: func(g *Graph, d int) (bool, error) {
			r, err := RunDiscoverEID(g, opts)
			return r.Completed, err
		}},
	}
	for _, f := range families {
		d := f.g.WeightedDiameter()
		for _, p := range protos {
			t.Run(fmt.Sprintf("%s/%s", p.name, f.name), func(t *testing.T) {
				completed, err := p.run(f.g, d)
				if err != nil {
					t.Fatalf("%s on %s: %v", p.name, f.name, err)
				}
				if !completed {
					t.Fatalf("%s on %s did not complete", p.name, f.name)
				}
			})
		}
	}
}

// TestDeterminismAcrossProtocols re-runs a fixed scenario twice per protocol
// and requires identical metrics — the reproducibility guarantee.
func TestDeterminismAcrossProtocols(t *testing.T) {
	g := RingOfCliques(3, 5, 2)
	d := g.WeightedDiameter()
	runs := map[string]func() (Metrics, error){
		"pushpull": func() (Metrics, error) {
			r, err := RunPushPull(g, 0, Options{Seed: 77})
			return r.Metrics, err
		},
		"eid": func() (Metrics, error) {
			r, err := RunEID(g, d, Options{Seed: 77})
			return r.Metrics, err
		},
		"generaleid": func() (Metrics, error) {
			r, err := RunGeneralEID(g, Options{Seed: 77})
			return r.Metrics, err
		},
		"pathdiscovery": func() (Metrics, error) {
			r, err := RunPathDiscovery(g, Options{Seed: 77})
			return r.Metrics, err
		},
		"discovereid": func() (Metrics, error) {
			r, err := RunDiscoverEID(g, Options{Seed: 77})
			return r.Metrics, err
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			a, err := run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("non-deterministic metrics:\n  first  %+v\n  second %+v", a, b)
			}
		})
	}
}
