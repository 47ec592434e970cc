package core

import (
	"testing"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

func TestTreeBroadcastCompletes(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{name: "clique16", g: graph.Clique(16, 1)},
		{name: "path10-L3", g: graph.Path(10, 3)},
		{name: "ringcliques", g: graph.RingOfCliques(3, 5, 2)},
		{name: "star24", g: graph.Star(24, 2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := TreeBroadcast(tt.g, 0, sim.Config{Seed: 7})
			if err != nil {
				t.Fatalf("TreeBroadcast: %v", err)
			}
			if !res.Completed {
				t.Fatal("tree broadcast did not achieve all-to-all dissemination")
			}
			if res.Depth <= 0 && tt.g.N() > 1 {
				t.Errorf("depth = %d", res.Depth)
			}
		})
	}
}

func TestTreeBroadcastStarFanOut(t *testing.T) {
	// On a star rooted at the center, the tree fan-out is n-1 — the failure
	// mode the spanner's O(log n) orientation avoids.
	g := graph.Star(32, 1)
	res, err := TreeBroadcast(g, 0, sim.Config{Seed: 3})
	if err != nil {
		t.Fatalf("TreeBroadcast: %v", err)
	}
	if res.MaxOutDegree != 31 {
		t.Errorf("star root fan-out = %d, want 31", res.MaxOutDegree)
	}
}

func TestTreeBroadcastValidation(t *testing.T) {
	if _, err := TreeBroadcast(graph.Clique(4, 1), 9, sim.Config{}); err == nil {
		t.Error("out-of-range root should fail")
	}
	disconnectedb := graph.New(3)
	disconnectedb.MustAddEdge(0, 1, 1)
	disconnected := disconnectedb.Build()
	if _, err := TreeBroadcast(disconnected, 0, sim.Config{}); err == nil {
		t.Error("disconnected graph should fail")
	}
}

func TestShortestPathTreeProperties(t *testing.T) {
	g := graph.RandomLatencies(graph.GNP(20, 0.3, 1, true, 5), 1, 6, 5)
	parentEdge, depth, err := shortestPathTree(g, 0)
	if err != nil {
		t.Fatalf("shortestPathTree: %v", err)
	}
	dist := g.Distances(0)
	for v := 1; v < g.N(); v++ {
		pe := g.Neighbors(v)[parentEdge[v]]
		// Parent relation realizes the shortest-path recurrence.
		if dist[pe.To]+int(pe.Lat) != dist[v] {
			t.Errorf("node %d parent edge not on a shortest path", v)
		}
	}
	for v := 0; v < g.N(); v++ {
		if dist[v] > depth {
			t.Errorf("depth %d below distance of node %d (%d)", depth, v, dist[v])
		}
	}
}
