package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
	"time"

	"gossip/internal/rng"
)

func TestTorus(t *testing.T) {
	g := Torus(4, 5, 2)
	if g.N() != 20 {
		t.Fatalf("n = %d", g.N())
	}
	// Torus is 4-regular with m = 2·rows·cols.
	if g.M() != 40 {
		t.Errorf("m = %d, want 40", g.M())
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("node %d degree %d, want 4", u, g.Degree(u))
		}
	}
	if !g.Connected() {
		t.Error("torus disconnected")
	}
	// Wraparound halves the diameter vs the grid.
	if gd, td := Grid(4, 5, 2).WeightedDiameter(), g.WeightedDiameter(); td >= gd {
		t.Errorf("torus diameter %d should beat grid diameter %d", td, gd)
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4, 1)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("n=%d m=%d, want 16/32", g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("node %d degree %d, want 4", u, g.Degree(u))
		}
	}
	if d := g.HopDiameter(); d != 4 {
		t.Errorf("hop diameter = %d, want 4", d)
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := CompleteBinaryTree(15, 3)
	if g.M() != 14 {
		t.Fatalf("m = %d, want n-1", g.M())
	}
	if !g.Connected() {
		t.Fatal("tree disconnected")
	}
	if g.Degree(0) != 2 {
		t.Errorf("root degree %d, want 2", g.Degree(0))
	}
	// Depth 3 tree: diameter 2·3·latency.
	if d := g.WeightedDiameter(); d != 18 {
		t.Errorf("weighted diameter = %d, want 18", d)
	}
}

func TestRandomRegular(t *testing.T) {
	g := RandomRegular(40, 6, 1, 3)
	if !g.Connected() {
		t.Fatal("random regular graph disconnected")
	}
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(u); d < 3 || d > 8 {
			t.Errorf("node %d degree %d far from target 6", u, d)
		}
	}
	g2 := RandomRegular(40, 6, 1, 3)
	if g.M() != g2.M() {
		t.Error("not deterministic for fixed seed")
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(5, 3, 2)
	if g.N() != 20 {
		t.Fatalf("n = %d, want 20", g.N())
	}
	if !g.Connected() {
		t.Fatal("caterpillar disconnected")
	}
	// Interior spine nodes: 2 spine edges + 3 legs = 5.
	if g.Degree(1) != 5 {
		t.Errorf("spine degree = %d, want 5", g.Degree(1))
	}
	if g.Degree(spineLeaf(5, 3)) != 1 {
		t.Errorf("leaf degree = %d, want 1", g.Degree(spineLeaf(5, 3)))
	}
}

func spineLeaf(spine, legs int) NodeID { return spine } // first leaf of spine node 0

func TestComponents(t *testing.T) {
	b := New(6)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(2, 3, 1)
	b.MustAddEdge(3, 4, 1)
	comps := b.Build().Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 2 || len(comps[1]) != 3 || len(comps[2]) != 1 {
		t.Errorf("component sizes %d/%d/%d", len(comps[0]), len(comps[1]), len(comps[2]))
	}
}

func TestQuickComponentsPartition(t *testing.T) {
	f := func(seed uint64) bool {
		n := 4 + int(seed%12)
		g := GNP(n, 0.2, 1, false, seed)
		comps := g.Components()
		seen := make(map[NodeID]bool)
		total := 0
		for _, c := range comps {
			total += len(c)
			for _, u := range c {
				if seen[u] {
					return false
				}
				seen[u] = true
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickHistogramSumsToN(t *testing.T) {
	f := func(seed uint64) bool {
		n := 3 + int(seed%20)
		g := GNP(n, 0.3, 1, true, seed)
		counts := make([]int, g.MaxDegree()+1) // nodes of each degree
		for u := 0; u < n; u++ {
			counts[g.Degree(u)]++
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChungLuPowerLaw(t *testing.T) {
	g := ChungLu(300, 2.5, 8, 1, 7)
	if !g.Connected() {
		t.Fatal("ChungLu graph disconnected")
	}
	avg := 2 * float64(g.M()) / float64(g.N())
	if avg < 3 || avg > 16 {
		t.Errorf("average degree %g far from target 8", avg)
	}
	// Power law: early (heavy) nodes have much higher degree than the tail.
	headDeg, tailDeg := 0, 0
	for v := 0; v < 10; v++ {
		headDeg += g.Degree(v)
	}
	for v := g.N() - 10; v < g.N(); v++ {
		tailDeg += g.Degree(v)
	}
	if headDeg < 4*tailDeg {
		t.Errorf("head degree %d not dominating tail %d (no skew)", headDeg, tailDeg)
	}
	// Deterministic.
	if g2 := ChungLu(300, 2.5, 8, 1, 7); g2.M() != g.M() {
		t.Error("not deterministic for fixed seed")
	}
}

// edgeHash is an FNV-1a hash of g's edge list in ID order.
func edgeHash(g *Graph) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(b[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(b[4:], uint32(e.V))
		binary.LittleEndian.PutUint32(b[8:], uint32(e.Latency))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestChungLuEdgeListPinned pins the exact edge lists ChungLu draws, so a
// change to its random stream or its probability expression shows here.
func TestChungLuEdgeListPinned(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed uint64
		m    int
		hash uint64
	}{
		{2000, 3, 7845, 0x70c6a71cabbf7d77},
		{2000, 4, 7844, 0x74084346bb8111f0},
		{500, 7, 1944, 0x1f053ff8c0b3758e},
	} {
		g := ChungLu(tc.n, 2.5, 8, 16, tc.seed)
		if g.M() != tc.m || edgeHash(g) != tc.hash {
			t.Errorf("ChungLu(%d, seed %d): m=%d hash=%#x, want m=%d hash=%#x", tc.n, tc.seed, g.M(), edgeHash(g), tc.m, tc.hash)
		}
	}
}

// TestCliqueFamiliesEdgeListPinned pins the clique builders' edge lists
// (order and latencies), which the scan-free insert must not change.
func TestCliqueFamiliesEdgeListPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		m    int
		hash uint64
	}{
		{"Clique(64)", Clique(64, 1), 2016, 0x354aec4d8cd46e25},
		{"RingOfCliques(64,64,32)", RingOfCliques(64, 64, 32), 129088, 0x355c8622ef652ea5},
		{"Dumbbell(512,64)", Dumbbell(512, 64), 261633, 0xf629918b7a75204f},
	} {
		if tc.g.M() != tc.m || edgeHash(tc.g) != tc.hash {
			t.Errorf("%s: m=%d hash=%#x, want m=%d hash=%#x", tc.name, tc.g.M(), edgeHash(tc.g), tc.m, tc.hash)
		}
	}
}

// TestChungLuPairsDistribution: over many streams, each pair is kept with
// frequency min(1, w_u·w_v/Σw) within 5σ, pairs of probability 1 always,
// and keep sees each pair at most once, in pair order.
func TestChungLuPairsDistribution(t *testing.T) {
	const n, trials = 24, 4000
	w, total := chungLuWeights(n, 2.5, 6)
	var kept [n][n]int
	for seed := uint64(1); seed <= trials; seed++ {
		r := rng.NewSplitMix(seed, 0x636c)
		lastU, lastV := -1, -1
		chungLuPairs(w, total, &r, func(u, v int) {
			if u >= v || v >= n || u < lastU || (u == lastU && v <= lastV) {
				t.Fatalf("seed %d: pair (%d,%d) after (%d,%d)", seed, u, v, lastU, lastV)
			}
			lastU, lastV = u, v
			kept[u][v]++
		})
	}
	sure := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := math.Min(1, w[u]*w[v]/total)
			if p == 1 {
				sure++
				if kept[u][v] != trials {
					t.Errorf("pair (%d,%d) has p=1 but was kept %d/%d times", u, v, kept[u][v], trials)
				}
				continue
			}
			freq := float64(kept[u][v]) / trials
			if sigma := math.Sqrt(p * (1 - p) / trials); math.Abs(freq-p) > 5*sigma {
				t.Errorf("pair (%d,%d): kept %.4f, want %.4f ± %.4f", u, v, freq, p, 5*sigma)
			}
		}
	}
	if sure == 0 {
		t.Fatal("no pair has p=1; the weights do not reach min(1, ·)")
	}
}

// TestChungLuTinyAvgDeg: at tiny probabilities a row's skip overflows int
// (or the product underflows to 0); the row must end, and the backbone
// still connects the graph.
func TestChungLuTinyAvgDeg(t *testing.T) {
	for _, avgDeg := range []float64{1e-9, 1e-30, 1e-300} {
		g := ChungLu(1000, 2.5, avgDeg, 1, 3)
		if g.N() != 1000 || !g.Connected() {
			t.Errorf("avgDeg %g: n=%d connected=%v", avgDeg, g.N(), g.Connected())
		}
	}
}

func TestChungLuValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { ChungLu(1, 2.5, 4, 1, 1) },
		func() { ChungLu(10, 2.0, 4, 1, 1) },
		func() { ChungLu(10, 2.5, 0, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid parameters")
				}
			}()
			fn()
		}()
	}
}

func TestRingChords(t *testing.T) {
	const n, chords, latMax = 2000, 4, 50
	g := RingChords(n, chords, latMax, 11)
	if g.N() != n {
		t.Fatalf("N = %d, want %d", g.N(), n)
	}
	// Ring backbone: connected by construction, M >= n, and the chord count
	// lands near the n·chords/2 target (a few collisions are skipped).
	if comps := g.Components(); len(comps) != 1 {
		t.Fatalf("%d components, want 1 (ring backbone)", len(comps))
	}
	chordsGot := g.M() - n
	want := n * chords / 2
	if chordsGot < want*8/10 || chordsGot > want {
		t.Errorf("chords = %d, want within [%d, %d]", chordsGot, want*8/10, want)
	}
	// Heterogeneous latencies: ring edges are 1, chords spread over [1, latMax].
	maxLat := 0
	for _, e := range g.Edges() {
		if e.Latency < 1 || e.Latency > latMax {
			t.Fatalf("edge latency %d outside [1, %d]", e.Latency, latMax)
		}
		if e.Latency > maxLat {
			maxLat = e.Latency
		}
	}
	if maxLat < latMax/2 {
		t.Errorf("max latency %d — chord latencies not spreading toward %d", maxLat, latMax)
	}
	if g2 := RingChords(n, chords, latMax, 11); g2.M() != g.M() {
		t.Error("not deterministic for fixed seed")
	}
}

func TestRingChordsLinearScale(t *testing.T) {
	if testing.Short() {
		t.Skip("250k-node generation is not -short friendly")
	}
	// The point of the family: n in the hundreds of thousands is cheap. A
	// quarter-million nodes must build in well under a minute even on one
	// core (O(n·chords), no n² pair scan).
	start := time.Now()
	g := RingChords(250_000, 4, 100, 3)
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("250k-node RingChords took %v", elapsed)
	}
	if got, wantMin := g.M(), 250_000; got < wantMin {
		t.Fatalf("M = %d, want >= %d ring edges", got, wantMin)
	}
}

func TestRingChordsValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { RingChords(2, 4, 10, 1) },
		func() { RingChords(10, -1, 10, 1) },
		func() { RingChords(10, 4, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid parameters")
				}
			}()
			fn()
		}()
	}
}
