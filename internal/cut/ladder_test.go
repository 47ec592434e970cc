package cut

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/par"
)

// equivCase is one graph instance of the ladder-equivalence suite. All
// instances are above MaxExactN so the heuristic engine (not exhaustive
// enumeration) is exercised.
type equivCase struct {
	name string
	g    *graph.Graph
}

// equivCases spans the graph families of the experiments: the paper's
// ring-of-cliques and dumbbell constructions, regular lattices, and the
// irregular random families (G(n,p), Chung-Lu power law).
func equivCases() []equivCase {
	var cases []equivCase
	for seed := uint64(1); seed <= 3; seed++ {
		cases = append(cases,
			equivCase{fmt.Sprintf("ringcliques/%d", seed), graph.RandomLatencies(graph.RingOfCliques(8, 8, 6), 1, 6, seed)},
			equivCase{fmt.Sprintf("gnp/%d", seed), graph.RandomLatencies(graph.GNP(80, 0.1, 1, true, seed), 1, 5, seed)},
			equivCase{fmt.Sprintf("chunglu/%d", seed), graph.RandomLatencies(graph.ChungLu(120, 2.5, 8, 1, seed), 1, 4, seed)},
			equivCase{fmt.Sprintf("grid/%d", seed), graph.RandomLatencies(graph.Grid(10, 10, 1), 1, 3, seed)},
			equivCase{fmt.Sprintf("torus/%d", seed), graph.RandomLatencies(graph.Torus(8, 8, 1), 1, 4, seed)},
			equivCase{fmt.Sprintf("caterpillar/%d", seed), graph.RandomLatencies(graph.Caterpillar(20, 3, 1), 1, 4, seed)},
		)
	}
	cases = append(cases, equivCase{"dumbbell", graph.Dumbbell(30, 9)})
	return cases
}

// TestLadderWorkerCountInvariance asserts the core determinism contract of
// the parallel ladder: WeightedConductance and LadderCertificates are
// byte-identical at any worker count, because par.Map merges results in
// index order and each level's inputs (cursor snapshot, spectral ordering,
// shared candidate orders) are fixed before the fan-out.
func TestLadderWorkerCountInvariance(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7} {
				prev := par.SetMaxWorkers(4)
				resPar, errPar := WeightedConductance(tc.g, seed)
				certsPar, cerrPar := LadderCertificates(tc.g, seed)
				par.SetMaxWorkers(1)
				resSeq, errSeq := WeightedConductance(tc.g, seed)
				certsSeq, cerrSeq := LadderCertificates(tc.g, seed)
				par.SetMaxWorkers(prev)
				if errPar != nil || errSeq != nil || cerrPar != nil || cerrSeq != nil {
					t.Fatalf("seed %d: errors %v %v %v %v", seed, errPar, errSeq, cerrPar, cerrSeq)
				}
				if !reflect.DeepEqual(resPar, resSeq) {
					t.Errorf("seed %d: parallel ladder differs from sequential:\n  par: %+v\n  seq: %+v", seed, resPar, resSeq)
				}
				if !reflect.DeepEqual(certsPar, certsSeq) {
					t.Errorf("seed %d: parallel certificates differ from sequential", seed)
				}
			}
		})
	}
}

// TestLadderMatchesReferenceOnStructuredFamilies pins the engine to the
// frozen per-level pipeline (reference_test.go) where the sweep heuristic is
// stable: on structured families the minimum cut is found by every candidate
// ordering regardless of the spectral start vector, so the warm-started
// engine must reproduce the pre-CSR ladder byte for byte — Phi, Ratio, φ*,
// and ℓ* all exactly equal. (On irregular families the warm start may land
// on a different, equally valid sweep cut; those are covered by the parity
// test below.)
func TestLadderMatchesReferenceOnStructuredFamilies(t *testing.T) {
	var cases []equivCase
	for seed := uint64(1); seed <= 3; seed++ {
		cases = append(cases,
			equivCase{fmt.Sprintf("chunglu/%d", seed), graph.RandomLatencies(graph.ChungLu(120, 2.5, 8, 1, seed), 1, 4, seed)},
			equivCase{fmt.Sprintf("grid/%d", seed), graph.RandomLatencies(graph.Grid(10, 10, 1), 1, 3, seed)},
		)
	}
	cases = append(cases, equivCase{"dumbbell", graph.Dumbbell(30, 9)})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7} {
				ref, err := WeightedConductanceRef(tc.g, seed)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				got, err := WeightedConductance(tc.g, seed)
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("seed %d: engine ladder differs from frozen reference:\n  ref: %+v\n  new: %+v", seed, ref, got)
				}
			}
		})
	}
}

// TestLadderReferenceParity bounds the heuristic drift on the irregular
// families where warm-starting legitimately changes which sweep cut wins:
// level structure (Ell sequence and the disconnected φ_ℓ = 0 prefix) must
// match the reference exactly, and every nonzero φ_ℓ must stay within a
// constant factor of the reference value — both are upper bounds on the same
// minimum, so a large gap in either direction would mean a quality
// regression.
func TestLadderReferenceParity(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7} {
				ref, err := WeightedConductanceRef(tc.g, seed)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				got, err := WeightedConductance(tc.g, seed)
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				if len(ref.Ladder) != len(got.Ladder) {
					t.Fatalf("seed %d: ladder lengths %d vs %d", seed, len(ref.Ladder), len(got.Ladder))
				}
				for k := range ref.Ladder {
					r, g := ref.Ladder[k], got.Ladder[k]
					if r.Ell != g.Ell {
						t.Fatalf("seed %d level %d: Ell %d vs %d", seed, k, r.Ell, g.Ell)
					}
					if (r.Phi == 0) != (g.Phi == 0) {
						t.Errorf("seed %d level %d: connectivity mismatch (ref φ=%g, new φ=%g)", seed, k, r.Phi, g.Phi)
					}
					if r.Phi > 0 && (g.Phi > r.Phi*1.5 || g.Phi < r.Phi/1.5) {
						t.Errorf("seed %d level %d: φ drift beyond 1.5×: ref %g, new %g", seed, k, r.Phi, g.Phi)
					}
				}
			}
		})
	}
}

// TestLadderCertificatesWitnessLadder asserts that LadderCertificates
// returns true witnesses of the WeightedConductance ladder: same levels,
// exactly equal φ values (both come from the same warm-started chain), and
// each certificate's Set realizes its Phi under PhiCut.
func TestLadderCertificatesWitnessLadder(t *testing.T) {
	cases := append(equivCases(),
		equivCase{"exact/dumbbell", graph.Dumbbell(4, 5)},
		equivCase{"exact/ringcliques", graph.RingOfCliques(3, 4, 2)},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := WeightedConductance(tc.g, 1)
			if err != nil {
				t.Fatalf("WeightedConductance: %v", err)
			}
			certs, err := LadderCertificates(tc.g, 1)
			if err != nil {
				t.Fatalf("LadderCertificates: %v", err)
			}
			if len(certs) != len(res.Ladder) {
				t.Fatalf("%d certificates for %d ladder levels", len(certs), len(res.Ladder))
			}
			for k, cert := range certs {
				if cert.Ell != res.Ladder[k].Ell {
					t.Fatalf("level %d: Ell %d vs ladder %d", k, cert.Ell, res.Ladder[k].Ell)
				}
				if cert.Phi != res.Ladder[k].Phi {
					t.Errorf("level %d: certificate φ=%g differs from ladder φ=%g", k, cert.Phi, res.Ladder[k].Phi)
				}
				phi, err := PhiCut(tc.g, cert.Set, cert.Ell)
				if err != nil {
					t.Fatalf("level %d: PhiCut: %v", k, err)
				}
				if math.Abs(phi-cert.Phi) > 1e-12 {
					t.Errorf("level %d: certificate Set realizes φ=%g, claimed %g", k, phi, cert.Phi)
				}
			}
		})
	}
}

// TestLadderExactPathMatchesReference pins the n <= MaxExactN path: the
// engine reads every rung off one exactLadder pass and the reference calls
// the frozen refPhiExactCut once per rung, so results are identical
// including the Exact flag.
func TestLadderExactPathMatchesReference(t *testing.T) {
	for _, tc := range []equivCase{
		{"dumbbell", graph.Dumbbell(4, 5)},
		{"ringcliques", graph.RingOfCliques(3, 4, 2)},
		{"gnp", graph.RandomLatencies(graph.GNP(12, 0.4, 1, true, 7), 1, 4, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := WeightedConductanceRef(tc.g, 1)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := WeightedConductance(tc.g, 1)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			if !got.Exact || !reflect.DeepEqual(ref, got) {
				t.Errorf("exact path mismatch:\n  ref: %+v\n  new: %+v", ref, got)
			}
		})
	}
}

// sameCut reports whether two certificates agree on Ell, Phi (exactly), and
// Set as a set of nodes: the engine canonicalizes disconnected-component
// witnesses to sorted order, while the frozen reference emits BFS order.
func sameCut(a, b Certificate) bool {
	if a.Ell != b.Ell || a.Phi != b.Phi || len(a.Set) != len(b.Set) {
		return false
	}
	as := append([]graph.NodeID(nil), a.Set...)
	bs := append([]graph.NodeID(nil), b.Set...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return reflect.DeepEqual(as, bs)
}

// TestSingleLevelEntryPointsMatchReference pins PhiHeuristicCut and
// PhiRefined to their pre-CSR counterparts: a single-level evaluation uses a
// cold spectral start and the full candidate set, so the CSR engine must
// reproduce the frozen pipeline exactly — same Phi and same Set (as a set).
func TestSingleLevelEntryPointsMatchReference(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			lats := tc.g.Latencies()
			ell := lats[len(lats)/2]
			for _, seed := range []uint64{1, 7} {
				refCut, err := refPhiHeuristicCut(tc.g, ell, seed)
				if err != nil {
					t.Fatalf("refPhiHeuristicCut: %v", err)
				}
				gotCut, err := PhiHeuristicCut(tc.g, ell, seed)
				if err != nil {
					t.Fatalf("PhiHeuristicCut: %v", err)
				}
				if !sameCut(refCut, gotCut) {
					t.Errorf("seed %d ℓ=%d: heuristic cut differs:\n  ref: φ=%g |set|=%d\n  new: φ=%g |set|=%d",
						seed, ell, refCut.Phi, len(refCut.Set), gotCut.Phi, len(gotCut.Set))
				}
				refRef, err := refPhiRefined(tc.g, ell, seed)
				if err != nil {
					t.Fatalf("refPhiRefined: %v", err)
				}
				gotRef, err := PhiRefined(tc.g, ell, seed)
				if err != nil {
					t.Fatalf("PhiRefined: %v", err)
				}
				if !sameCut(refRef, gotRef) {
					t.Errorf("seed %d ℓ=%d: refined cut differs:\n  ref: φ=%g |set|=%d\n  new: φ=%g |set|=%d",
						seed, ell, refRef.Phi, len(refRef.Set), gotRef.Phi, len(gotRef.Set))
				}
			}
		})
	}
}
