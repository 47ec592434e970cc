package cut

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gossip/internal/graph"
)

func TestPhiExactCutCertifies(t *testing.T) {
	g := graph.Dumbbell(5, 4)
	cert, err := PhiExactCut(g, 4)
	if err != nil {
		t.Fatalf("PhiExactCut: %v", err)
	}
	phi, err := PhiCut(g, cert.Set, 4)
	if err != nil {
		t.Fatalf("PhiCut on certificate: %v", err)
	}
	if math.Abs(phi-cert.Phi) > 1e-12 {
		t.Errorf("certificate claims %g but realizes %g", cert.Phi, phi)
	}
	ref, err := refPhiExactCut(g, 4)
	if err != nil {
		t.Fatalf("refPhiExactCut: %v", err)
	}
	if !reflect.DeepEqual(ref, cert) {
		t.Errorf("certificate %+v != frozen enumeration %+v", cert, ref)
	}
	// The natural minimizer of a dumbbell separates the two cliques.
	if len(cert.Set) != 5 {
		t.Errorf("certificate side size %d, want 5", len(cert.Set))
	}
}

func TestPhiHeuristicCutCertifies(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
		ell  int
	}{
		{name: "ring", g: graph.RingOfCliques(4, 6, 3), ell: 3},
		{name: "grid", g: graph.Grid(5, 5, 1), ell: 1},
		{name: "dumbbell", g: graph.Dumbbell(8, 5), ell: 5},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cert, err := PhiHeuristicCut(tt.g, tt.ell, 1)
			if err != nil {
				t.Fatalf("PhiHeuristicCut: %v", err)
			}
			phi, err := PhiCut(tt.g, cert.Set, tt.ell)
			if err != nil {
				t.Fatalf("PhiCut on certificate: %v", err)
			}
			if math.Abs(phi-cert.Phi) > 1e-12 {
				t.Errorf("certificate claims %g but realizes %g", cert.Phi, phi)
			}
			if heur := PhiHeuristic(tt.g, tt.ell, 1); math.Abs(heur-cert.Phi) > 1e-12 {
				t.Errorf("certificate φ=%g != heuristic φ=%g", cert.Phi, heur)
			}
		})
	}
}

func TestPhiHeuristicCutDisconnected(t *testing.T) {
	g := graph.Dumbbell(4, 9)
	cert, err := PhiHeuristicCut(g, 1, 1)
	if err != nil {
		t.Fatalf("PhiHeuristicCut: %v", err)
	}
	if cert.Phi != 0 {
		t.Errorf("φ = %g, want 0 for disconnected G_ℓ", cert.Phi)
	}
	phi, err := PhiCut(g, cert.Set, 1)
	if err != nil {
		t.Fatalf("PhiCut: %v", err)
	}
	if phi != 0 {
		t.Errorf("certificate cut realizes %g, want 0", phi)
	}
}

func TestQuickCertificateAlwaysRealized(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(8)
		g := graph.RandomLatencies(graph.GNP(n, 0.5, 1, true, uint64(seed)), 1, 4, uint64(seed))
		ell := 1 + r.Intn(4)
		cert, err := PhiExactCut(g, ell)
		if err != nil {
			return false
		}
		phi, err := PhiCut(g, cert.Set, ell)
		if err != nil {
			return false
		}
		return math.Abs(phi-cert.Phi) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
