package graph

import "testing"

// adjFamilies is the multi-family sweep the AdjCSR tests run on: uniform
// and mixed latencies, dense and sparse rows, regular and power-law degree.
func adjFamilies() map[string]*Graph {
	return map[string]*Graph{
		"clique":     Clique(9, 3),
		"path":       Path(12, 2),
		"star":       Star(7, 1),
		"dumbbell":   Dumbbell(5, 4),
		"ring":       RingOfCliques(4, 5, 2),
		"grid":       Grid(4, 5, 1),
		"torus":      Torus(3, 4, 2),
		"hypercube":  Hypercube(4, 1),
		"chunglu":    ChungLu(200, 2.5, 6, 3, 5),
		"ringchords": RingChords(300, 4, 16, 9),
		"random-lat": RandomLatencies(Grid(5, 5, 1), 1, 9, 4),
	}
}

// TestAdjCSRMirrorsAdjacency: on a spread of families, every row reproduces
// Graph.Neighbors order exactly, EdgeIndex inverts HalfEdge.ID for both
// endpoints of every edge, and each entry's Peer is the edge's index in the
// neighbor's list.
func TestAdjCSRMirrorsAdjacency(t *testing.T) {
	for name, g := range adjFamilies() {
		c := BuildAdjCSR(g)
		if c.N() != g.N() || c.M() != g.M() {
			t.Fatalf("%s: N/M = %d/%d, want %d/%d", name, c.N(), c.M(), g.N(), g.M())
		}
		for u := 0; u < g.N(); u++ {
			hes := g.Neighbors(u)
			row := c.Row(u)
			if c.Degree(u) != len(hes) || len(row) != len(hes) {
				t.Fatalf("%s: Degree(%d) = %d, len(Row) = %d, want %d", name, u, c.Degree(u), len(row), len(hes))
			}
			for i, he := range hes {
				e := row[i]
				if int(e.To) != he.To || int(e.Lat) != he.Latency || int(e.ID) != he.ID {
					t.Fatalf("%s: Row(%d)[%d] = %+v, want %+v", name, u, i, e, he)
				}
				if got := c.EdgeIndex(u, he.ID); got != i {
					t.Fatalf("%s: EdgeIndex(%d,%d) = %d, want %d", name, u, he.ID, got, i)
				}
				back := g.Neighbors(he.To)
				if int(e.Peer) >= len(back) || back[e.Peer].ID != he.ID || back[e.Peer].To != u {
					t.Fatalf("%s: Row(%d)[%d].Peer = %d does not name edge %d in %d's list", name, u, i, e.Peer, he.ID, he.To)
				}
				if got := c.EdgeIndex(he.To, he.ID); got != int(e.Peer) {
					t.Fatalf("%s: EdgeIndex(%d,%d) = %d, want Peer %d", name, he.To, he.ID, got, e.Peer)
				}
			}
			// Every edge not incident to u, and every id outside [0, M),
			// resolves to -1 at u.
			incident := make(map[int]bool, len(hes))
			for _, he := range hes {
				incident[he.ID] = true
			}
			for id := -3; id < g.M()+3; id++ {
				if incident[id] {
					continue
				}
				if got := c.EdgeIndex(u, id); got != -1 {
					t.Fatalf("%s: EdgeIndex(%d, non-incident %d) = %d, want -1", name, u, id, got)
				}
			}
		}
	}
}

// TestAdjCSREdgeIndexRejects: non-incident edges, out-of-range ids, and the
// runtime's synthetic negative membership edge ids all resolve to -1.
func TestAdjCSREdgeIndexRejects(t *testing.T) {
	g := Path(4, 1) // edges 0: (0,1), 1: (1,2), 2: (2,3)
	c := BuildAdjCSR(g)
	if got := c.EdgeIndex(0, 2); got != -1 {
		t.Errorf("EdgeIndex(0, non-incident) = %d, want -1", got)
	}
	if got := c.EdgeIndex(3, 0); got != -1 {
		t.Errorf("EdgeIndex(3, non-incident) = %d, want -1", got)
	}
	if got := c.EdgeIndex(1, -7); got != -1 {
		t.Errorf("EdgeIndex(1, negative) = %d, want -1", got)
	}
	if got := c.EdgeIndex(1, -1<<40); got != -1 {
		t.Errorf("EdgeIndex(1, large negative) = %d, want -1", got)
	}
	if got := c.EdgeIndex(1, g.M()); got != -1 {
		t.Errorf("EdgeIndex(1, out of range) = %d, want -1", got)
	}
	if got := c.EdgeIndex(1, 1<<40); got != -1 {
		t.Errorf("EdgeIndex(1, large out of range) = %d, want -1", got)
	}
}
