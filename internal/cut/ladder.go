package cut

import (
	"fmt"

	"gossip/internal/graph"
	"gossip/internal/par"
)

// This file drives the φ_ℓ ladder of Definition 2 incrementally: distinct
// latencies are walked in ascending order, the level cursor of the CSR view
// only ever advances (O(2m) total across the whole ladder), connectivity is
// resolved by one union-find pass over the latency-sorted edge list, and
// each level's spectral embedding warm-starts from the previous level's
// converged vector — monotone edge growth makes the previous eigenvector a
// near-fixpoint, so the power iteration exits after a few steps instead of
// the full budget. The expensive per-level work (sweeps over all candidate
// orderings plus greedy refinement) is independent across levels and fans
// out over the shared worker pool (internal/par), merged in index order so
// the ladder is byte-identical at any worker count, including 1.

// WeightedConductance computes φ* and ℓ* (Definition 2) by evaluating φ_ℓ at
// every distinct edge latency and maximizing φ_ℓ/ℓ. Its ladder is read off
// LadderCertificates: exact when n <= MaxExactN, otherwise the heuristic.
// Work is spread up to par.MaxWorkers(); the result does not depend on the
// worker count.
func WeightedConductance(g *graph.Graph, seed uint64) (Result, error) {
	certs, err := LadderCertificates(g, seed)
	if err != nil {
		return Result{}, err
	}
	res := Result{Exact: g.N() <= MaxExactN, Ladder: make([]Ladder, len(certs))}
	bestIdx := 0
	for k, c := range certs {
		res.Ladder[k] = Ladder{Ell: c.Ell, Phi: c.Phi, Ratio: c.Phi / float64(c.Ell)}
		if res.Ladder[k].Ratio > res.Ladder[bestIdx].Ratio {
			bestIdx = k
		}
	}
	res.PhiStar = res.Ladder[bestIdx].Phi
	res.EllStar = res.Ladder[bestIdx].Ell
	return res, nil
}

// heuristicCerts evaluates φ_ℓ at every level of lats (ascending) with the
// CSR engine and returns the refined certificate of each level. The
// sequential prologue — CSR build, shared orderings, connectivity walk,
// warm-started spectral chain — is cheap; the per-level sweep+refine work
// dominates and runs in parallel.
func heuristicCerts(g *graph.Graph, seed uint64, lats []int) ([]Certificate, error) {
	v := newView(g, seed)
	n := v.csr.N()
	v.sharedOrders() // materialize before the parallel phase

	// One union-find pass resolves connectivity for every level — φ_ℓ = 0
	// exactly while G_ℓ is disconnected, and connectivity is monotone — and
	// yields the smallest-component witness of each disconnected level.
	conn, smallest := v.csr.LadderComponents(true)

	// Spectral chain: walk levels in ascending order, advancing the level
	// cursor incrementally and warm-starting each level's power iteration
	// from the previous converged vector. Cursor snapshots feed the
	// parallel phase below.
	endsAt := make([][]int32, len(lats))
	spectrals := make([][]graph.NodeID, len(lats))
	sc := getScratch(n)
	ends := v.csr.NewEnds()
	var x []float64
	for k, ell := range lats {
		v.csr.AdvanceEnds(ends, ell)
		endsAt[k] = append([]int32(nil), ends...)
		if !conn[k] {
			continue
		}
		iters := warmIterBudget(n)
		if x == nil {
			x = make([]float64, n)
			coldStart(x, seed)
			iters = spectralIterBudget(n) // first connected level runs cold
		}
		spectrals[k] = spectralAt(v.csr, endsAt[k], x, sc, iters)
	}
	putScratch(sc)

	// Parallel phase: levels are independent given their cursor snapshot
	// and spectral ordering; par.Map merges in index order.
	return par.Map(len(lats), func(k int) (Certificate, error) {
		ell := lats[k]
		if !conn[k] {
			return Certificate{Set: smallest[k], Ell: ell, Phi: 0}, nil
		}
		wsc := getScratch(n)
		defer putScratch(wsc)
		return v.levelCert(ell, endsAt[k], spectrals[k], refinePasses, wsc), nil
	})
}

// LadderCertificates returns the cut witnessing φ_ℓ at every distinct
// latency level: for n <= MaxExactN the exact minimizing cuts of one
// exactLadder pass, otherwise the certificates of the warm-started heuristic
// chain. This is the one place the exact/heuristic split is decided;
// WeightedConductance's ladder is read off these certificates.
func LadderCertificates(g *graph.Graph, seed uint64) ([]Certificate, error) {
	lats := g.Latencies()
	if len(lats) == 0 {
		return nil, fmt.Errorf("cut: graph has no edges")
	}
	if g.N() <= MaxExactN {
		return exactLadder(g, lats)
	}
	return heuristicCerts(g, seed, lats)
}
