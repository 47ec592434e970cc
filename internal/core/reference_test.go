package core

import (
	"testing"

	"gossip/internal/graph"
	"gossip/internal/rng"
	"gossip/internal/sim"
)

// referencePushPull is an independent, array-based re-implementation of
// single-source push-pull under the engine's delivery semantics (request at
// t+⌈ℓ/2⌉, response at t+ℓ): a differential oracle for the event engine.
// It must reproduce the engine's informed rounds *exactly* because both
// draw node randomness from rng.Stream(seed, id+1) in the same order.
func referencePushPull(g *graph.Graph, source graph.NodeID, seed uint64, maxRounds int) []int {
	n := g.N()
	informedAt := make([]int, n)
	for i := range informedAt {
		informedAt[i] = -1
	}
	informedAt[source] = 0
	rands := make([]*randWrap, n)
	for v := 0; v < n; v++ {
		rands[v] = &randWrap{r: rng.Stream(seed, uint64(v)+1)}
	}
	informed := make([]bool, n)
	informed[source] = true

	type delivery struct {
		at       int
		to       graph.NodeID
		informs  bool
		isReq    bool
		from     graph.NodeID
		edgeIdx  int // index in responder's adjacency (for requests)
		latency  int
		initFrom bool // request carried initiator's informed bit
	}
	var pending []delivery
	countInformed := func() int {
		c := 0
		for _, b := range informed {
			if b {
				c++
			}
		}
		return c
	}
	for round := 1; round <= maxRounds; round++ {
		// Phase A: deliveries scheduled for this round, in scheduling order.
		// Process iteratively because zero-delay responses (ℓ=1) are
		// appended during the scan.
		for i := 0; i < len(pending); i++ {
			d := pending[i]
			if d.at != round {
				continue
			}
			pending[i].at = -1 // consumed
			if d.isReq {
				// Responder merges the push bit, then answers with its
				// current bit; the response lands at initiation+ℓ, i.e.
				// after the remaining ⌊ℓ/2⌋ rounds.
				if d.informs && !informed[d.to] {
					informed[d.to] = true
					if informedAt[d.to] < 0 {
						informedAt[d.to] = round
					}
				}
				pending = append(pending, delivery{
					at:      round + d.latency - (d.latency+1)/2,
					to:      d.from,
					informs: informed[d.to],
				})
			} else if d.informs && !informed[d.to] {
				informed[d.to] = true
				if informedAt[d.to] < 0 {
					informedAt[d.to] = round
				}
			}
		}
		if countInformed() == n {
			return informedAt
		}
		// Phase B: every node initiates to a uniform random neighbor.
		for v := 0; v < n; v++ {
			adj := g.Neighbors(v)
			if len(adj) == 0 {
				continue
			}
			he := adj[rands[v].Intn(len(adj))]
			pending = append(pending, delivery{
				at:      round + (int(he.Lat)+1)/2,
				to:      int(he.To),
				informs: informed[v],
				isReq:   true,
				from:    v,
				latency: int(he.Lat),
			})
		}
	}
	return informedAt
}

type randWrap struct{ r interface{ Intn(int) int } }

func (w *randWrap) Intn(n int) int { return w.r.Intn(n) }

// TestEngineMatchesReference differentially tests the event engine: the
// independent reference must produce identical informed rounds for every
// node across graphs and seeds.
func TestEngineMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{name: "clique-9", g: graph.Clique(9, 1)},
		{name: "path-7-L5", g: graph.Path(7, 5)},
		{name: "ring-3x4-L3", g: graph.RingOfCliques(3, 4, 3)},
		{name: "mixed", g: graph.RandomLatencies(graph.GNP(10, 0.4, 1, true, 2), 1, 6, 2)},
	}
	for _, tt := range graphs {
		for seed := uint64(1); seed <= 5; seed++ {
			res, err := PushPull(tt.g, 0, ModePushPull, sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: engine: %v", tt.name, seed, err)
			}
			ref := referencePushPull(tt.g, 0, seed, 10*res.Metrics.Rounds+100)
			for v := range ref {
				if ref[v] != res.InformedAt[v] {
					t.Errorf("%s seed %d node %d: engine informed at %d, reference at %d",
						tt.name, seed, v, res.InformedAt[v], ref[v])
				}
			}
		}
	}
}
