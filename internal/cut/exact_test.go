package cut

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/par"
)

// checkExactLadder compares every rung of exactLadder with the frozen
// refPhiExactCut, on Phi and Set, at one worker and at two or more.
func checkExactLadder(t *testing.T, g *graph.Graph) {
	t.Helper()
	lats := g.Latencies()
	want := make([]Certificate, len(lats))
	for k, ell := range lats {
		var err error
		if want[k], err = refPhiExactCut(g, ell); err != nil {
			t.Fatalf("refPhiExactCut(ℓ=%d): %v", ell, err)
		}
	}
	defer par.SetMaxWorkers(par.MaxWorkers())
	for _, workers := range []int{1, max(runtime.GOMAXPROCS(0), 2)} {
		par.SetMaxWorkers(workers)
		got, err := exactLadder(g, lats)
		if err != nil {
			t.Fatalf("exactLadder: %v", err)
		}
		for k := range want {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("%d workers, rung ℓ=%d: got %+v, want %+v", workers, lats[k], got[k], want[k])
			}
		}
	}
}

// TestExactLadderMatchesReference pins the Gray-code ladder to the frozen
// per-rung enumeration on graphs with ties (cliques, grids), several rungs,
// more than one enumeration block, and isolated nodes (node 0 among them),
// whose cuts can have a zero-volume side.
func TestExactLadderMatchesReference(t *testing.T) {
	isolatedb := graph.New(5)
	isolatedb.MustAddEdge(1, 2, 2)
	isolatedb.MustAddEdge(2, 3, 1)
	isolated := isolatedb.Build()
	for _, tc := range []equivCase{
		{"clique-12", graph.Clique(12, 1)},
		{"dumbbell-10", graph.Dumbbell(10, 6)},
		{"grid-4x5", graph.Grid(4, 5, 3)},
		{"dumbbell-4", graph.Dumbbell(4, 5)},
		{"ringcliques-3x6", graph.RingOfCliques(3, 6, 2)},
		{"gnp-18", graph.RandomLatencies(graph.GNP(18, 0.4, 1, true, 3), 1, 5, 3)},
		{"isolated-0-and-4", isolated},
		{"pendant-pair-11", pendantPair(11, 10)},
		{"pendant-pair-14", pendantPair(14, 10)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkExactLadder(t, tc.g) })
	}
}

// pendantPair is a clique on every node but 0 and v, plus the edge (0, v)
// and a latency-2 bridge (0, 1): every rung's unique minimum cut is {0, v}.
// With one block (n <= 11, v = n−1) that is the walk's last mask, and with
// v = 10 it is the last mask of block 0, so a walk that stops one step short
// misses it.
func pendantPair(n, v int) *graph.Graph {
	gb := graph.New(n)
	gb.MustAddEdge(0, v, 1)
	gb.MustAddEdge(0, 1, 2)
	for a := 1; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if a != v && b != v {
				gb.MustAddEdge(a, b, 1)
			}
		}
	}
	return gb.Build()
}

// FuzzExactLadder decodes bytes into a graph of at most 14 nodes with
// latencies 1–4 and checks every rung of the exact ladder against the frozen
// enumeration. The first byte picks n; each further byte decides one node
// pair in lexicographic order: an odd byte adds the edge with latency
// 1 + (b>>1)%4.
func FuzzExactLadder(f *testing.F) {
	f.Add([]byte{12, 1, 3, 5, 7, 0, 0, 9, 11, 13, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%13
		gb := graph.New(n)
		data = data[1:]
		for u := 0; u < n && len(data) > 0; u++ {
			for v := u + 1; v < n && len(data) > 0; v++ {
				if b := data[0]; b&1 == 1 {
					gb.MustAddEdge(u, v, 1+int(b>>1)%4)
				}
				data = data[1:]
			}
		}
		g := gb.Build()
		if g.M() > 0 {
			checkExactLadder(t, g)
		}
	})
}

// TestPhiExactCutEdgeless: with no edges no cut has volume on both sides,
// so φ is +Inf and the certificate names no node, as in the frozen loop.
func TestPhiExactCutEdgeless(t *testing.T) {
	g := graph.New(3).Build()
	got, err := PhiExactCut(g, 1)
	if err != nil {
		t.Fatalf("PhiExactCut: %v", err)
	}
	want, _ := refPhiExactCut(g, 1)
	if !math.IsInf(got.Phi, 1) || !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}
