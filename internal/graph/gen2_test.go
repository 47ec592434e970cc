package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"
	"time"

	"gossip/internal/par"
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
	g := New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 2 || len(comps[1]) != 3 || len(comps[2]) != 1 {
		t.Errorf("component sizes %d/%d/%d", len(comps[0]), len(comps[1]), len(comps[2]))
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := Star(5, 1)
	h := g.DegreeHistogram()
	if h[4] != 1 || h[1] != 4 {
		t.Errorf("histogram = %v", h)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Clique(5, 2)
	sub, orig := g.InducedSubgraph([]NodeID{1, 3, 4})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced n=%d m=%d, want 3/3", sub.N(), sub.M())
	}
	if orig[0] != 1 || orig[2] != 4 {
		t.Errorf("orig mapping = %v", orig)
	}
	if l, ok := sub.EdgeLatency(0, 1); !ok || l != 2 {
		t.Errorf("induced edge latency = %d,%v", l, ok)
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
		total := 0
		for _, c := range g.DegreeHistogram() {
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
		{2000, 3, 7855, 0xfabc521ba3f3d9e},
		{2000, 4, 7786, 0xda29afee6a332fb6},
		{500, 7, 1974, 0xa38d074fbf286804},
	} {
		g := ChungLu(tc.n, 2.5, 8, 16, tc.seed)
		if g.M() != tc.m || edgeHash(g) != tc.hash {
			t.Errorf("ChungLu(%d, seed %d): m=%d hash=%#x, want m=%d hash=%#x", tc.n, tc.seed, g.M(), edgeHash(g), tc.m, tc.hash)
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

// chungLuWeights returns ChungLu's weights and their total for n nodes.
func chungLuWeights(n int) ([]float64, float64) {
	w := make([]float64, n)
	total := 0.0
	for v := range w {
		w[v] = 40 / float64(v+1)
		total += w[v]
	}
	return w, total
}

// TestChungLuChunksMatchInOrder: the chunked pair loop keeps exactly the
// pairs the in-order loop keeps, at every worker count.
func TestChungLuChunksMatchInOrder(t *testing.T) {
	w, total := chungLuWeights(700)
	for _, workers := range []int{1, 2, 3, 8} {
		func() {
			defer par.SetMaxWorkers(par.SetMaxWorkers(workers))
			for seed := uint64(1); seed <= 3; seed++ {
				r := rng.NewSplitMix(seed, 0x636c)
				got, ok := chungLuChunks(w, total, r)
				if !ok {
					t.Fatalf("seed %d: chunks hit a redraw", seed)
				}
				if want := chungLuInOrder(w, total, r); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%d workers, seed %d: %d chunked pairs differ from %d in order", workers, seed, len(got), len(want))
				}
			}
		}()
	}
}

// TestChungLuRedrawFallsBack plants a draw that Float64 must redraw in the
// middle of the pair loop: the chunked loop must refuse it, so ChungLu
// takes the in-order loop, which redraws as rand.Float64 does.
func TestChungLuRedrawFallsBack(t *testing.T) {
	const n = 300
	w, total := chungLuWeights(n)
	// Draw k of a stream is mix(state + (k+1)·γ); pick the state that makes
	// the draw for pair (150, 151) all ones, which Float64 rounds to 1.
	k := uint64(150*(n-1) - 150*149/2)
	var r rng.SplitMix
	r.Seed(int64(unmix(^uint64(0)) - (k+1)*0x9e3779b97f4a7c15))
	probe := r
	probe.Skip(k)
	if f := float64(probe.Uint64()>>1) / (1 << 63); f != 1 {
		t.Fatalf("planted draw gives %v, want 1", f)
	}
	defer par.SetMaxWorkers(par.SetMaxWorkers(2))
	if _, ok := chungLuChunks(w, total, r); ok {
		t.Fatal("chunked loop accepted a stream that needs a redraw")
	}
	pairs := chungLuInOrder(w, total, r)
	if len(pairs) == 0 {
		t.Fatal("in-order loop kept no pairs")
	}
}

// unmix inverts SplitMix64's output mix.
func unmix(x uint64) uint64 {
	inv := func(c uint64) uint64 {
		y := c
		for i := 0; i < 6; i++ {
			y *= 2 - c*y
		}
		return y
	}
	x ^= x>>31 ^ x>>62
	x *= inv(0x94d049bb133111eb)
	x ^= x>>27 ^ x>>54
	x *= inv(0xbf58476d1ce4e5b9)
	x ^= x>>30 ^ x>>60
	return x
}
