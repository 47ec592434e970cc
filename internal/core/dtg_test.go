package core

import (
	"testing"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

// requireLocalBroadcast asserts every node knows the rumor of each of its
// ℓ-neighbors — the definition of solving ℓ-local broadcast.
func requireLocalBroadcast(t *testing.T, g *graph.Graph, ell int, res LocalBroadcastResult) {
	t.Helper()
	if !res.Completed {
		t.Fatal("local broadcast did not complete")
	}
	for u := 0; u < g.N(); u++ {
		for _, he := range g.Neighbors(u) {
			if int(he.Lat) > ell {
				continue
			}
			if !res.Know[u][int(he.To)] {
				t.Errorf("node %d missing rumor of ℓ-neighbor %d", u, he.To)
			}
			if !res.Know[he.To][u] {
				t.Errorf("ℓ-neighbor %d missing rumor of node %d (symmetry)", he.To, u)
			}
		}
	}
}

func TestDTGClique(t *testing.T) {
	g := graph.Clique(32, 1)
	res, err := LocalBroadcastDTG(g, 1, sim.Config{Seed: 1})
	if err != nil {
		t.Fatalf("DTG: %v", err)
	}
	requireLocalBroadcast(t, g, 1, res)
	if res.Metrics.Rounds > dtgBudget(1, 32) {
		t.Errorf("DTG on K32 took %d rounds, budget is %d", res.Metrics.Rounds, dtgBudget(1, 32))
	}
}

func TestDTGStar(t *testing.T) {
	g := graph.Star(64, 1)
	res, err := LocalBroadcastDTG(g, 1, sim.Config{Seed: 2})
	if err != nil {
		t.Fatalf("DTG: %v", err)
	}
	requireLocalBroadcast(t, g, 1, res)
}

func TestDTGLatencyFilter(t *testing.T) {
	// Path with alternating latencies 1 and 9; 1-DTG must cover only the
	// latency-1 edges.
	gb := graph.New(8)
	for v := 1; v < 8; v++ {
		lat := 1
		if v%2 == 0 {
			lat = 9
		}
		gb.MustAddEdge(v-1, v, lat)
	}
	g := gb.Build()
	res, err := LocalBroadcastDTG(g, 1, sim.Config{Seed: 3})
	if err != nil {
		t.Fatalf("DTG: %v", err)
	}
	requireLocalBroadcast(t, g, 1, res)
	// Latency-9 neighbors must NOT have been required; ensure the run was
	// fast (no waiting on slow edges).
	if res.Metrics.Rounds > 60 {
		t.Errorf("1-DTG took %d rounds; slow edges should be ignored", res.Metrics.Rounds)
	}
}

func TestDTGWeightedBudget(t *testing.T) {
	// ℓ-DTG on a ring of cliques with bridges of latency 4, ℓ = 4: every
	// node must learn bridge neighbors too, in O(ℓ log² n).
	g := graph.RingOfCliques(4, 8, 4)
	ell := 4
	res, err := LocalBroadcastDTG(g, ell, sim.Config{Seed: 4})
	if err != nil {
		t.Fatalf("DTG: %v", err)
	}
	requireLocalBroadcast(t, g, ell, res)
	if b := dtgBudget(ell, g.N()); res.Metrics.Rounds > b {
		t.Errorf("ℓ-DTG took %d rounds, exceeds budget %d", res.Metrics.Rounds, b)
	}
}

func TestDTGGrid(t *testing.T) {
	g := graph.Grid(6, 6, 2)
	res, err := LocalBroadcastDTG(g, 2, sim.Config{Seed: 5})
	if err != nil {
		t.Fatalf("DTG: %v", err)
	}
	requireLocalBroadcast(t, g, 2, res)
}

func TestRandomLocalBroadcast(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		ell  int
	}{
		{name: "clique", g: graph.Clique(24, 1), ell: 1},
		{name: "star", g: graph.Star(32, 2), ell: 2},
		{name: "ringcliques", g: graph.RingOfCliques(3, 6, 3), ell: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := LocalBroadcastRandom(tt.g, tt.ell, sim.Config{Seed: 7})
			if err != nil {
				t.Fatalf("LocalBroadcastRandom: %v", err)
			}
			requireLocalBroadcast(t, tt.g, tt.ell, res)
		})
	}
}
