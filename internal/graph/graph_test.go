package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAddEdgeValidation: the builder's checked add rejects self loops,
// duplicates in either orientation, out-of-range endpoints and latencies
// outside [1, MaxInt32], with the errors graphio surfaces.
func TestAddEdgeValidation(t *testing.T) {
	b := New(3)
	tests := []struct {
		name    string
		u, v    NodeID
		lat     int
		wantErr string
	}{
		{name: "ok", u: 0, v: 1, lat: 1},
		{name: "self loop", u: 2, v: 2, lat: 1, wantErr: "graph: self loop at 2"},
		{name: "duplicate", u: 0, v: 1, lat: 2, wantErr: "graph: duplicate edge (0,1)"},
		{name: "duplicate reversed", u: 1, v: 0, lat: 2, wantErr: "graph: duplicate edge (1,0)"},
		{name: "out of range", u: 0, v: 3, lat: 1, wantErr: "graph: edge (0,3) out of range [0,3)"},
		{name: "negative node", u: -1, v: 1, lat: 1, wantErr: "graph: edge (-1,1) out of range [0,3)"},
		{name: "zero latency", u: 1, v: 2, lat: 0, wantErr: "graph: latency 0 < 1 on edge (1,2)"},
		{name: "latency too wide", u: 1, v: 2, lat: 1 << 32, wantErr: "graph: latency 4294967296 > 2147483647 on edge (1,2)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := b.AddEdge(tt.u, tt.v, tt.lat)
			if got := fmt.Sprint(err); err == nil && tt.wantErr != "" || err != nil && got != tt.wantErr {
				t.Errorf("AddEdge(%d,%d,%d) err = %v, want %q", tt.u, tt.v, tt.lat, err, tt.wantErr)
			}
		})
	}
	if !b.HasEdge(1, 0) || b.HasEdge(1, 1) || b.HasEdge(1, 2) {
		t.Error("HasEdge disagrees with the one accepted edge")
	}
	if g := b.Build(); g.M() != 1 || g.MaxLatency() != 1 {
		t.Errorf("built %v, want the one accepted edge", g)
	}
}

func TestAccessors(t *testing.T) {
	b := New(4)
	b.MustAddEdge(0, 1, 5)
	b.MustAddEdge(1, 2, 3)
	b.MustAddEdge(2, 3, 7)
	g := b.Build()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if l, ok := g.EdgeLatency(1, 0); !ok || l != 5 {
		t.Errorf("EdgeLatency(1,0) = %d,%v", l, ok)
	}
	if _, ok := g.EdgeLatency(0, 3); ok {
		t.Error("EdgeLatency found nonexistent edge")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	if g.Degree(1) != 2 || g.MaxDegree() != 2 {
		t.Errorf("Degree(1)=%d MaxDegree=%d", g.Degree(1), g.MaxDegree())
	}
	if g.MaxLatency() != 7 {
		t.Errorf("MaxLatency = %d", g.MaxLatency())
	}
	if got := g.Latencies(); len(got) != 3 || got[0] != 3 || got[2] != 7 {
		t.Errorf("Latencies = %v", got)
	}
	if vol := g.Volume([]NodeID{0, 1}); vol != 3 {
		t.Errorf("Volume({0,1}) = %d, want 3", vol)
	}
}

func TestDistancesAndDiameter(t *testing.T) {
	// Triangle with a shortcut: 0-1 (lat 10), 0-2 (lat 1), 2-1 (lat 2):
	// dist(0,1) should be 3 via node 2.
	b := New(3)
	b.MustAddEdge(0, 1, 10)
	b.MustAddEdge(0, 2, 1)
	b.MustAddEdge(2, 1, 2)
	g := b.Build()
	d := g.Distances(0)
	if d[1] != 3 || d[2] != 1 {
		t.Errorf("Distances(0) = %v", d)
	}
	if got := g.WeightedDiameter(); got != 3 {
		t.Errorf("WeightedDiameter = %d, want 3", got)
	}
	if got := g.HopDiameter(); got != 1 {
		t.Errorf("HopDiameter = %d, want 1", got)
	}
}

func TestDisconnected(t *testing.T) {
	b := New(4)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(2, 3, 1)
	g := b.Build()
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if d := g.Distances(0); d[2] != Inf {
		t.Errorf("dist to other component = %d, want Inf", d[2])
	}
}

func TestSubgraph(t *testing.T) {
	b := New(3)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 5)
	g := b.Build()
	sub := g.Subgraph(2)
	if sub.M() != 1 || !sub.HasEdge(0, 1) || sub.HasEdge(1, 2) {
		t.Errorf("Subgraph(2) wrong: m=%d", sub.M())
	}
	if sub.N() != 3 {
		t.Errorf("Subgraph node count = %d", sub.N())
	}
}

func TestDistancesWithin(t *testing.T) {
	g := Path(10, 2)
	d := g.DistancesWithin(0, 5)
	// Nodes 0,1,2 at distances 0,2,4 are within 5; node 3 at 6 is not.
	if len(d) != 3 {
		t.Errorf("DistancesWithin found %d nodes: %v", len(d), d)
	}
	if d[2] != 4 {
		t.Errorf("d[2] = %d", d[2])
	}
}

func TestGenerators(t *testing.T) {
	tests := []struct {
		name    string
		g       *Graph
		n, m    int
		maxDeg  int
		connect bool
	}{
		{name: "clique", g: Clique(5, 1), n: 5, m: 10, maxDeg: 4, connect: true},
		{name: "star", g: Star(6, 2), n: 6, m: 5, maxDeg: 5, connect: true},
		{name: "path", g: Path(7, 1), n: 7, m: 6, maxDeg: 2, connect: true},
		{name: "cycle", g: Cycle(5, 3), n: 5, m: 5, maxDeg: 2, connect: true},
		{name: "grid", g: Grid(3, 4, 1), n: 12, m: 17, maxDeg: 4, connect: true},
		{name: "dumbbell", g: Dumbbell(4, 9), n: 8, m: 13, maxDeg: 4, connect: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.n || tt.g.M() != tt.m {
				t.Errorf("n=%d m=%d, want n=%d m=%d", tt.g.N(), tt.g.M(), tt.n, tt.m)
			}
			if tt.g.MaxDegree() != tt.maxDeg {
				t.Errorf("Δ=%d, want %d", tt.g.MaxDegree(), tt.maxDeg)
			}
			if tt.g.Connected() != tt.connect {
				t.Errorf("connected=%v", tt.g.Connected())
			}
		})
	}
}

func TestRingOfCliques(t *testing.T) {
	g := RingOfCliques(4, 5, 7)
	if g.N() != 20 {
		t.Fatalf("n = %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("ring of cliques disconnected")
	}
	// 4 cliques of C(5,2)=10 edges plus 4 bridges.
	if g.M() != 44 {
		t.Errorf("m = %d, want 44", g.M())
	}
	bridges := 0
	for _, e := range g.Edges() {
		if e.Latency == 7 {
			bridges++
		}
	}
	if bridges != 4 {
		t.Errorf("bridges = %d, want 4", bridges)
	}
}

func TestGNPConnected(t *testing.T) {
	g := GNP(50, 0.05, 1, true, 1)
	if !g.Connected() {
		t.Error("GNP with backbone must be connected")
	}
	g2 := GNP(50, 0.05, 1, true, 1)
	if g.M() != g2.M() {
		t.Error("GNP not deterministic for fixed seed")
	}
}

func TestRandomLatenciesRange(t *testing.T) {
	g := RandomLatencies(Clique(10, 1), 2, 6, 5)
	for _, e := range g.Edges() {
		if e.Latency < 2 || e.Latency > 6 {
			t.Fatalf("latency %d outside [2,6]", e.Latency)
		}
	}
}

// TestRandomLatenciesPinned pins the latencies RandomLatencies draws, and
// checks that every half-edge carries its edge's latency.
func TestRandomLatenciesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		hash uint64
	}{
		{"gnp", RandomLatencies(GNP(300, 0.05, 1, true, 2), 1, 16, 3), 0x3df2d737f8ac40d1},
		{"grid", RandomLatencies(Grid(8, 8, 1), 1, 8, 5), 0x46a31a66aac1861},
	} {
		if h := edgeHash(tc.g); h != tc.hash {
			t.Errorf("%s: hash=%#x, want %#x", tc.name, h, tc.hash)
		}
		for u := 0; u < tc.g.N(); u++ {
			for _, e := range tc.g.Neighbors(u) {
				if want := tc.g.Edge(int(e.ID)).Latency; int(e.Lat) != want {
					t.Fatalf("%s: half-edge %d→%d has latency %d, edge %d has %d", tc.name, u, e.To, e.Lat, e.ID, want)
				}
			}
		}
	}
}

func TestQuickDijkstraTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(12)
		g := RandomLatencies(GNP(n, 0.4, 1, true, uint64(seed)), 1, 9, uint64(seed))
		u := r.Intn(n)
		du := g.Distances(u)
		// For every edge (a,b): |du[a]-du[b]| <= latency(a,b).
		for _, e := range g.Edges() {
			diff := du[e.U] - du[e.V]
			if diff < 0 {
				diff = -diff
			}
			if diff > e.Latency {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickBFSLowerBoundsDijkstra(t *testing.T) {
	// Hop distance <= weighted distance (all latencies >= 1).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(12)
		g := RandomLatencies(GNP(n, 0.4, 1, true, uint64(seed)), 1, 5, uint64(seed))
		u := r.Intn(n)
		hop := g.HopDistances(u)
		wtd := g.Distances(u)
		for v := 0; v < n; v++ {
			if hop[v] > wtd[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWeightedDiameterApprox(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(10)
		g := RandomLatencies(GNP(n, 0.5, 1, true, uint64(seed)), 1, 7, uint64(seed))
		d := g.WeightedDiameter()
		a := g.WeightedDiameterApprox()
		_ = r
		return a <= d && d <= 2*a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
