package cut

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gossip/internal/graph"
)

func TestRefineNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(10)
		g := graph.RandomLatencies(graph.GNP(n, 0.4, 1, true, uint64(seed)), 1, 4, uint64(seed))
		ell := 1 + r.Intn(4)
		cert, err := PhiHeuristicCut(g, ell, uint64(seed))
		if err != nil {
			return false
		}
		ref := Refine(g, cert, 10)
		if ref.Phi > cert.Phi+1e-12 {
			return false
		}
		// The refined certificate must realize its claimed value.
		if len(ref.Set) == 0 || len(ref.Set) >= n {
			return false
		}
		phi, err := PhiCut(g, ref.Set, ell)
		return err == nil && math.Abs(phi-ref.Phi) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRefineImprovesPerturbedStart(t *testing.T) {
	// Start from the bridge cut of a dumbbell perturbed by one misplaced
	// node; single-move refinement must walk it back to the exact minimum.
	g := graph.Dumbbell(6, 4)
	start := Certificate{Set: []graph.NodeID{0, 1, 2, 3, 4, 5, 6}, Ell: 4}
	var err error
	start.Phi, err = PhiCut(g, start.Set, 4)
	if err != nil {
		t.Fatalf("PhiCut: %v", err)
	}
	ref := Refine(g, start, 20)
	if ref.Phi >= start.Phi {
		t.Errorf("refinement did not improve: %g -> %g", start.Phi, ref.Phi)
	}
	exact, err := PhiExactCut(g, 4)
	if err != nil {
		t.Fatalf("PhiExactCut: %v", err)
	}
	if math.Abs(ref.Phi-exact.Phi) > 1e-12 {
		t.Errorf("refined φ=%g, want exact %g", ref.Phi, exact.Phi)
	}
	if len(ref.Set) != 6 {
		t.Errorf("refined side size %d, want 6 (the bridge cut)", len(ref.Set))
	}
}

func TestPhiRefinedAtLeastAsGoodAsHeuristic(t *testing.T) {
	g := graph.RandomLatencies(graph.GNP(18, 0.35, 1, true, 11), 1, 5, 11)
	for _, ell := range []int{1, 3, 5} {
		heur := PhiHeuristic(g, ell, 11)
		ref, err := PhiRefined(g, ell, 11)
		if err != nil {
			t.Fatalf("PhiRefined: %v", err)
		}
		if ref.Phi > heur+1e-12 {
			t.Errorf("ℓ=%d: refined %g worse than heuristic %g", ell, ref.Phi, heur)
		}
		exact, err := PhiExactCut(g, ell)
		if err != nil {
			t.Fatalf("PhiExactCut: %v", err)
		}
		if ref.Phi < exact.Phi-1e-12 {
			t.Errorf("ℓ=%d: refined %g below exact %g (impossible)", ell, ref.Phi, exact.Phi)
		}
	}
}

func TestRefineDegenerateInputs(t *testing.T) {
	g := graph.Clique(4, 1)
	empty := Refine(g, Certificate{Ell: 1}, 5)
	if len(empty.Set) != 0 {
		t.Error("empty certificate should pass through")
	}
	full := Refine(g, Certificate{Set: []graph.NodeID{0, 1, 2, 3}, Ell: 1}, 5)
	if len(full.Set) != 4 {
		t.Error("full certificate should pass through")
	}
}
