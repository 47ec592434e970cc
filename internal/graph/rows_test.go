package graph_test

import (
	"strings"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphio"
)

// rowFamilies is the multi-family sweep the row tests run on: uniform and
// mixed latencies, dense and sparse rows, regular and power-law degree, and
// a graph loaded from the edge-list format.
func rowFamilies(t *testing.T) map[string]*graph.Graph {
	loaded, err := graphio.ReadEdgeList(strings.NewReader("5 6\n0 1 3\n2 1 1\n4 0 7\n3 2 2\n1 4 5\n3 0 9\n"))
	if err != nil {
		t.Fatal(err)
	}
	rn, err := graph.NewRingNetwork(12, 0.5, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"clique":      graph.Clique(9, 3),
		"path":        graph.Path(12, 2),
		"cycle":       graph.Cycle(7, 2),
		"star":        graph.Star(7, 1),
		"dumbbell":    graph.Dumbbell(5, 4),
		"ring":        graph.RingOfCliques(4, 5, 2),
		"grid":        graph.Grid(4, 5, 1),
		"torus":       graph.Torus(3, 4, 2),
		"hypercube":   graph.Hypercube(4, 1),
		"tree":        graph.CompleteBinaryTree(15, 2),
		"caterpillar": graph.Caterpillar(4, 3, 1),
		"gnp":         graph.GNP(40, 0.2, 1, true, 7),
		"regular":     graph.RandomRegular(30, 4, 2, 5),
		"chunglu":     graph.ChungLu(200, 2.5, 6, 3, 5),
		"ringchords":  graph.RingChords(300, 4, 16, 9),
		"random-lat":  graph.RandomLatencies(graph.Grid(5, 5, 1), 1, 9, 4),
		"subgraph":    graph.RandomLatencies(graph.Grid(5, 5, 1), 1, 9, 4).Subgraph(4),
		"ring-net":    rn.G,
		"loaded":      loaded,
	}
}

// TestRowsRoundTripEdges: on every family, each half-edge carries its edge's
// endpoints and latency, EdgeIndex inverts the edge id at both endpoints,
// each entry's Peer is the edge's index in the neighbor's row, and every
// edge not incident to a node resolves to -1 there.
func TestRowsRoundTripEdges(t *testing.T) {
	for name, g := range rowFamilies(t) {
		halves := 0
		for u := 0; u < g.N(); u++ {
			row := g.Neighbors(u)
			if g.Degree(u) != len(row) {
				t.Fatalf("%s: Degree(%d) = %d, len(row) = %d", name, u, g.Degree(u), len(row))
			}
			halves += len(row)
			incident := make(map[int]bool, len(row))
			for i, e := range row {
				id, to := int(e.ID), int(e.To)
				incident[id] = true
				ed := g.Edge(id)
				if !(ed.U == u && ed.V == to || ed.U == to && ed.V == u) || ed.Latency != int(e.Lat) {
					t.Fatalf("%s: row %d entry %d = %+v does not match edge %d = %+v", name, u, i, e, id, ed)
				}
				if got := g.EdgeIndex(u, id); got != i {
					t.Fatalf("%s: EdgeIndex(%d,%d) = %d, want %d", name, u, id, got, i)
				}
				back := g.Neighbors(to)
				if int(e.Peer) >= len(back) || back[e.Peer].ID != e.ID || int(back[e.Peer].To) != u || back[e.Peer].Peer != int32(i) {
					t.Fatalf("%s: row %d entry %d Peer = %d does not name edge %d in %d's row", name, u, i, e.Peer, id, to)
				}
				if got := g.EdgeIndex(to, id); got != int(e.Peer) {
					t.Fatalf("%s: EdgeIndex(%d,%d) = %d, want Peer %d", name, to, id, got, e.Peer)
				}
			}
			for id := -3; id < g.M()+3; id++ {
				if !incident[id] && g.EdgeIndex(u, id) != -1 {
					t.Fatalf("%s: EdgeIndex(%d, non-incident %d) = %d, want -1", name, u, id, g.EdgeIndex(u, id))
				}
			}
		}
		if halves != 2*g.M() {
			t.Fatalf("%s: %d half-edges for %d edges", name, halves, g.M())
		}
	}
}

// TestEdgeIndexRejects: non-incident edges, out-of-range ids, and the
// runtime's synthetic negative membership edge ids all resolve to -1.
func TestEdgeIndexRejects(t *testing.T) {
	g := graph.Path(4, 1) // edges 0: (0,1), 1: (1,2), 2: (2,3)
	for _, tc := range []struct {
		u, id int
	}{{0, 2}, {3, 0}, {1, -7}, {1, -1 << 40}, {1, g.M()}, {1, 1 << 40}} {
		if got := g.EdgeIndex(tc.u, tc.id); got != -1 {
			t.Errorf("EdgeIndex(%d, %d) = %d, want -1", tc.u, tc.id, got)
		}
	}
}

// TestChungLuBuildAllocsFlat: a ChungLu build allocates O(1) times, not once
// per row or per edge, so its allocation count does not grow with n.
func TestChungLuBuildAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(2, func() { graph.ChungLu(n, 2.5, 8, 16, 1) })
	}
	small, large := allocs(2000), allocs(20000)
	if large > small+2 {
		t.Errorf("ChungLu allocations grow with n: %v at 2,000 nodes, %v at 20,000", small, large)
	}
}
