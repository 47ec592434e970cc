package cut

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gossip/internal/graph"
)

func TestPhiCutDumbbell(t *testing.T) {
	// Dumbbell of two K4 joined by one latency-5 bridge: the natural cut has
	// 1 edge (at ℓ>=5) over volume min = 2·6+1 = 13.
	g := graph.Dumbbell(4, 5)
	left := []graph.NodeID{0, 1, 2, 3}
	phi5, err := PhiCut(g, left, 5)
	if err != nil {
		t.Fatalf("PhiCut: %v", err)
	}
	if want := 1.0 / 13.0; math.Abs(phi5-want) > 1e-12 {
		t.Errorf("φ_5(cut) = %g, want %g", phi5, want)
	}
	// Below the bridge latency the cut has no usable edge.
	phi1, err := PhiCut(g, left, 1)
	if err != nil {
		t.Fatalf("PhiCut: %v", err)
	}
	if phi1 != 0 {
		t.Errorf("φ_1(cut) = %g, want 0", phi1)
	}
}

func TestPhiCutValidation(t *testing.T) {
	g := graph.Clique(4, 1)
	if _, err := PhiCut(g, nil, 1); err == nil {
		t.Error("empty side should fail")
	}
	if _, err := PhiCut(g, []graph.NodeID{0, 1, 2, 3}, 1); err == nil {
		t.Error("full side should fail")
	}
	if _, err := PhiCut(g, []graph.NodeID{9}, 1); err == nil {
		t.Error("out-of-range node should fail")
	}
}

// TestPhiCutRejectsRepeatedNodes: a repeated node would count its degree
// twice in the volume, so PhiCut refuses it like an out-of-range node.
func TestPhiCutRejectsRepeatedNodes(t *testing.T) {
	g := graph.Path(4, 1)
	if phi, err := PhiCut(g, []graph.NodeID{0}, 1); err != nil || phi != 1 {
		t.Fatalf("PhiCut({0}) = %g, %v; want 1", phi, err)
	}
	for _, tc := range []struct {
		name string
		set  []graph.NodeID
	}{
		{"twice", []graph.NodeID{0, 0}},
		{"distinct-pair-padded", []graph.NodeID{0, 1, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			phi, err := PhiCut(g, tc.set, 1)
			if err == nil || !strings.Contains(err.Error(), "repeated") {
				t.Errorf("PhiCut(%v) = %g, %v; want a repeated-node error", tc.set, phi, err)
			}
		})
	}
}

func TestPhiExactClique(t *testing.T) {
	// K4 unit latency: conductance of K_n is minimized by the balanced cut:
	// 4 cut edges over volume 6 = 2/3... enumerate by hand: single node cut
	// = 3/3 = 1; pair cut = 4/6 = 2/3.
	g := graph.Clique(4, 1)
	cert, err := PhiExactCut(g, 1)
	if err != nil {
		t.Fatalf("PhiExactCut: %v", err)
	}
	if want := 2.0 / 3.0; math.Abs(cert.Phi-want) > 1e-12 {
		t.Errorf("φ(K4) = %g, want %g", cert.Phi, want)
	}
}

func TestPhiExactRejectsLarge(t *testing.T) {
	g := graph.Clique(MaxExactN+1, 1)
	if _, err := PhiExactCut(g, 1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestPhiHeuristicMatchesExactSmall(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		ell  int
	}{
		{name: "dumbbell", g: graph.Dumbbell(5, 3), ell: 3},
		{name: "ring-of-cliques", g: graph.RingOfCliques(3, 4, 2), ell: 2},
		{name: "path", g: graph.Path(10, 1), ell: 1},
		{name: "grid", g: graph.Grid(3, 4, 1), ell: 1},
		{name: "random", g: graph.GNP(12, 0.4, 1, true, 7), ell: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cert, err := PhiExactCut(tt.g, tt.ell)
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			exact, heur := cert.Phi, PhiHeuristic(tt.g, tt.ell, 1)
			if heur < exact-1e-12 {
				t.Fatalf("heuristic %g below exact %g (impossible: heuristic is an upper bound)", heur, exact)
			}
			if heur > exact*1.5+1e-12 {
				t.Errorf("heuristic %g too loose vs exact %g", heur, exact)
			}
		})
	}
}

func TestPhiHeuristicDisconnectedSubgraph(t *testing.T) {
	// Dumbbell with bridge latency 9: at ℓ=1 the ≤ℓ subgraph is
	// disconnected, so φ_1 = 0 exactly.
	g := graph.Dumbbell(4, 9)
	if phi := PhiHeuristic(g, 1, 1); phi != 0 {
		t.Errorf("φ_1 = %g, want 0", phi)
	}
}

func TestWeightedConductanceDumbbell(t *testing.T) {
	// Bridge latency 5: φ_1 = 0, φ_5 = 1/13 → φ* = φ_5, ℓ* = 5.
	g := graph.Dumbbell(4, 5)
	res, err := WeightedConductance(g, 1)
	if err != nil {
		t.Fatalf("WeightedConductance: %v", err)
	}
	if !res.Exact {
		t.Error("small graph should use exact enumeration")
	}
	if res.EllStar != 5 {
		t.Errorf("ℓ* = %d, want 5", res.EllStar)
	}
	if want := 1.0 / 13.0; math.Abs(res.PhiStar-want) > 1e-12 {
		t.Errorf("φ* = %g, want %g", res.PhiStar, want)
	}
	if len(res.Ladder) != 2 {
		t.Errorf("ladder length = %d, want 2", len(res.Ladder))
	}
}

func TestWeightedConductanceUnitGraphIsClassical(t *testing.T) {
	// With unit latencies, φ* equals the classical conductance (Section 2).
	g := graph.Clique(6, 1)
	res, err := WeightedConductance(g, 1)
	if err != nil {
		t.Fatalf("WeightedConductance: %v", err)
	}
	classical, err := PhiExactCut(g, 1)
	if err != nil {
		t.Fatalf("PhiExactCut: %v", err)
	}
	if res.EllStar != 1 || math.Abs(res.PhiStar-classical.Phi) > 1e-12 {
		t.Errorf("φ*=%g ℓ*=%d, want classical φ=%g at ℓ=1", res.PhiStar, res.EllStar, classical.Phi)
	}
}

func TestWeightedConductanceNoEdges(t *testing.T) {
	if _, err := WeightedConductance(graph.New(3).Build(), 1); err == nil {
		t.Error("edgeless graph should fail")
	}
}

// TestLemma9HalfCut verifies φ_ℓ(C) = α on the Theorem 8 ring construction.
func TestLemma9HalfCut(t *testing.T) {
	for _, alpha := range []float64{0.125, 0.25} {
		rn, err := graph.NewRingNetwork(128, alpha, 8, 3)
		if err != nil {
			t.Fatalf("ring: %v", err)
		}
		phi, err := PhiCut(rn.G, rn.HalfCut(), rn.Ell)
		if err != nil {
			t.Fatalf("PhiCut: %v", err)
		}
		// Lemma 9: φ_ℓ(C) = 2(cnα)²/(n(3cnα−1)) = exactly α modulo the
		// integer rounding of s and k; allow 25% slack for rounding.
		if phi < alpha*0.75 || phi > alpha*1.35 {
			t.Errorf("α=%g: φ_ℓ(C) = %g, want ≈ α (Lemma 9)", alpha, phi)
		}
	}
}

// TestLemma10RingConductance verifies φ_ℓ = Θ(α) via the heuristic.
func TestLemma10RingConductance(t *testing.T) {
	alpha := 0.25
	rn, err := graph.NewRingNetwork(64, alpha, 6, 5)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	phi := PhiHeuristic(rn.G, rn.Ell, 1)
	if phi > alpha*1.35 {
		t.Errorf("φ_ℓ = %g exceeds α=%g beyond rounding slack", phi, alpha)
	}
	if phi < alpha/8 {
		t.Errorf("φ_ℓ = %g far below Θ(α)=Θ(%g) (Lemma 10)", phi, alpha)
	}
}

// TestLemma11CriticalLatency verifies φ* = φ_ℓ (critical latency = ℓ) for
// ℓ within the allowed range.
func TestLemma11CriticalLatency(t *testing.T) {
	rn, err := graph.NewRingNetwork(64, 0.25, 6, 5)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	res, err := WeightedConductance(rn.G, 1)
	if err != nil {
		t.Fatalf("WeightedConductance: %v", err)
	}
	if res.EllStar != rn.Ell {
		t.Errorf("ℓ* = %d, want %d (Lemma 11)", res.EllStar, rn.Ell)
	}
}

func TestQuickHeuristicUpperBoundsExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(8)
		g := graph.RandomLatencies(graph.GNP(n, 0.5, 1, true, uint64(seed)), 1, 4, uint64(seed))
		ell := 1 + r.Intn(4)
		exact, err := PhiExactCut(g, ell)
		if err != nil {
			return false
		}
		heur := PhiHeuristic(g, ell, uint64(seed))
		return heur >= exact.Phi-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickPhiMonotoneInEll(t *testing.T) {
	// φ_ℓ is non-decreasing in ℓ: more edges qualify, volumes unchanged.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(7)
		g := graph.RandomLatencies(graph.GNP(n, 0.6, 1, true, uint64(seed)), 1, 5, uint64(seed))
		prev := -1.0
		for ell := 1; ell <= 5; ell++ {
			cert, err := PhiExactCut(g, ell)
			if err != nil {
				return false
			}
			if cert.Phi < prev-1e-12 {
				return false
			}
			prev = cert.Phi
		}
		_ = r
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
