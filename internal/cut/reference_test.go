package cut

import (
	"fmt"
	"math"
	"sort"

	"gossip/internal/graph"
	"gossip/internal/rng"
)

// This file is the frozen pre-CSR conductance pipeline, kept verbatim as the
// oracle for the ladder-equivalence suite and as the baseline side of
// BenchmarkWeightedConductance*Ref. It evaluates every level of the φ_ℓ
// ladder independently: one spectral power iteration at the full budget, one
// set of BFS/random orderings, and one Subgraph build per distinct latency.
// Nothing in the live engine may call into it; changes here invalidate the
// reference side of every recorded engine-vs-reference comparison.

// WeightedConductanceRef computes φ* and ℓ* with the pre-CSR per-level
// pipeline. It lives in a test file, for benchmarks and equivalence tests
// only; use WeightedConductance.
func WeightedConductanceRef(g *graph.Graph, seed uint64) (Result, error) {
	lats := g.Latencies()
	if len(lats) == 0 {
		return Result{}, fmt.Errorf("cut: graph has no edges")
	}
	res := Result{Exact: g.N() <= MaxExactN}
	for _, ell := range lats {
		var phi float64
		if res.Exact {
			cert, err := refPhiExactCut(g, ell)
			if err != nil {
				return Result{}, fmt.Errorf("exact φ_%d: %w", ell, err)
			}
			phi = cert.Phi
		} else {
			cert, err := refPhiRefined(g, ell, seed)
			if err != nil {
				return Result{}, fmt.Errorf("heuristic φ_%d: %w", ell, err)
			}
			phi = cert.Phi
		}
		res.Ladder = append(res.Ladder, Ladder{Ell: ell, Phi: phi, Ratio: phi / float64(ell)})
	}
	bestIdx := 0
	for i, l := range res.Ladder {
		if l.Ratio > res.Ladder[bestIdx].Ratio {
			bestIdx = i
		}
	}
	res.PhiStar = res.Ladder[bestIdx].Phi
	res.EllStar = res.Ladder[bestIdx].Ell
	return res, nil
}

// refPhiExactCut is the exhaustive enumeration exactLadder replaced, frozen
// as the oracle for the exact ladder: one rung per call, masks in ascending
// order with node 0 fixed on the left, and every mask rescans all degrees
// and all edges. The first minimizing mask wins, so ties go to the
// numerically smallest.
func refPhiExactCut(g *graph.Graph, ell int) (Certificate, error) {
	n := g.N()
	if n < 2 {
		return Certificate{}, fmt.Errorf("cut: need n >= 2, got %d", n)
	}
	if n > MaxExactN {
		return Certificate{}, fmt.Errorf("%w: n=%d > %d", ErrTooLarge, n, MaxExactN)
	}
	deg := make([]int, n)
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(u)
	}
	edges := g.Edges()
	volAll := 2 * g.M()
	best := math.Inf(1)
	var bestMask uint64
	for mask := uint64(0); mask < 1<<uint(n-1)-1; mask++ {
		full := uint64(1) | mask<<1
		volU := 0
		for u := 0; u < n; u++ {
			if full&(1<<uint(u)) != 0 {
				volU += deg[u]
			}
		}
		den := volU
		if volAll-volU < den {
			den = volAll - volU
		}
		if den == 0 {
			continue
		}
		cutEdges := 0
		for _, e := range edges {
			if e.Latency <= ell && (full>>uint(e.U))&1 != (full>>uint(e.V))&1 {
				cutEdges++
			}
		}
		if phi := float64(cutEdges) / float64(den); phi < best {
			best = phi
			bestMask = full
		}
	}
	cert := Certificate{Ell: ell, Phi: best}
	for u := 0; u < n; u++ {
		if bestMask&(1<<uint(u)) != 0 {
			cert.Set = append(cert.Set, u)
		}
	}
	return cert, nil
}

// refPhiRefined is the pre-CSR PhiRefined: sweep heuristic plus local
// refinement at one level.
func refPhiRefined(g *graph.Graph, ell int, seed uint64) (Certificate, error) {
	cert, err := refPhiHeuristicCut(g, ell, seed)
	if err != nil {
		return Certificate{}, err
	}
	if cert.Phi == 0 {
		return cert, nil
	}
	return refRefine(g, cert, 20), nil
}

// refPhiHeuristicCut is the pre-CSR PhiHeuristicCut: candidate orderings are
// recomputed from scratch at every level.
func refPhiHeuristicCut(g *graph.Graph, ell int, seed uint64) (Certificate, error) {
	n := g.N()
	if n < 2 {
		return Certificate{}, fmt.Errorf("cut: need n >= 2, got %d", n)
	}
	if comps := g.Subgraph(ell).Components(); len(comps) > 1 {
		small := comps[0]
		for _, c := range comps[1:] {
			if len(c) < len(small) {
				small = c
			}
		}
		if len(small) == n {
			small = small[:n-1]
		}
		return Certificate{Set: append([]graph.NodeID(nil), small...), Ell: ell, Phi: 0}, nil
	}
	best := Certificate{Ell: ell, Phi: math.Inf(1)}
	consider := func(order []graph.NodeID) {
		set, phi := refBestSweepCut(g, order, ell)
		if phi < best.Phi {
			best.Phi = phi
			best.Set = set
		}
	}
	consider(refSpectralOrder(g, ell, seed))
	r := rng.Stream(seed, 0x6873)
	sources := []graph.NodeID{0}
	for i := 0; i < 3 && n > 1; i++ {
		sources = append(sources, r.Intn(n))
	}
	for _, s := range sources {
		dist := g.Distances(s)
		order := identityOrder(n)
		sort.SliceStable(order, func(i, j int) bool { return dist[order[i]] < dist[order[j]] })
		consider(order)
	}
	for i := 0; i < 2; i++ {
		order := identityOrder(n)
		r.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		consider(order)
	}
	return best, nil
}

// refBestSweepCut is the pre-CSR sweep: every incident edge is re-filtered
// by latency on each visit.
func refBestSweepCut(g *graph.Graph, order []graph.NodeID, ell int) ([]graph.NodeID, float64) {
	n := g.N()
	pos := make([]int, n)
	for i, u := range order {
		pos[u] = i
	}
	volAll := 2 * g.M()
	volU := 0
	cutEdges := 0
	best := math.Inf(1)
	bestPrefix := 1
	for i := 0; i < n-1; i++ {
		u := order[i]
		volU += g.Degree(u)
		for _, he := range g.Neighbors(u) {
			if int(he.Lat) > ell {
				continue
			}
			if pos[he.To] > i {
				cutEdges++
			} else {
				cutEdges--
			}
		}
		den := volU
		if volAll-volU < den {
			den = volAll - volU
		}
		if den == 0 {
			continue
		}
		if phi := float64(cutEdges) / float64(den); phi < best {
			best = phi
			bestPrefix = i + 1
		}
	}
	return append([]graph.NodeID(nil), order[:bestPrefix]...), best
}

// refSpectralOrder is the pre-CSR spectral embedding: power iteration of the
// lazy random walk on G_ℓ, always running the fixed iteration budget.
func refSpectralOrder(g *graph.Graph, ell int, seed uint64) []graph.NodeID {
	n := g.N()
	deg := make([]float64, n)
	total := 0.0
	for u := 0; u < n; u++ {
		for _, he := range g.Neighbors(u) {
			if int(he.Lat) <= ell {
				deg[u]++
			}
		}
		if deg[u] == 0 {
			deg[u] = 1 // isolated in G_ℓ: self-loop only
		}
		total += deg[u]
	}
	r := rng.Stream(seed, 0x7370) // "sp"
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64() - 0.5
	}
	y := make([]float64, n)
	iters := 20 + 4*int(math.Log2(float64(n)+1))
	for it := 0; it < iters; it++ {
		// Deflate the stationary distribution π(u) ∝ deg(u): remove the
		// degree-weighted mean.
		mean := 0.0
		for u := 0; u < n; u++ {
			mean += deg[u] * x[u]
		}
		mean /= total
		for u := 0; u < n; u++ {
			x[u] -= mean
		}
		// One lazy-walk step: y = (x + P x)/2 with P = D⁻¹A on G_ℓ.
		for u := 0; u < n; u++ {
			sum := 0.0
			cnt := 0.0
			for _, he := range g.Neighbors(u) {
				if int(he.Lat) <= ell {
					sum += x[he.To]
					cnt++
				}
			}
			if cnt == 0 {
				y[u] = x[u]
			} else {
				y[u] = 0.5*x[u] + 0.5*sum/cnt
			}
		}
		// Normalize to avoid underflow.
		norm := 0.0
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-300 {
			break
		}
		for u := 0; u < n; u++ {
			x[u] = y[u] / norm
		}
	}
	order := identityOrder(n)
	sort.SliceStable(order, func(i, j int) bool { return x[order[i]] < x[order[j]] })
	return order
}

// refRefine is the pre-CSR greedy single-node refinement.
func refRefine(g *graph.Graph, cert Certificate, maxPasses int) Certificate {
	n := g.N()
	if len(cert.Set) == 0 || len(cert.Set) >= n {
		return cert
	}
	in := make([]bool, n)
	for _, u := range cert.Set {
		in[u] = true
	}
	size := len(cert.Set)
	volAll := 2 * g.M()
	volU := g.Volume(cert.Set)
	cutEdges := 0
	for _, e := range g.Edges() {
		if e.Latency <= cert.Ell && in[e.U] != in[e.V] {
			cutEdges++
		}
	}
	phiOf := func(cutE, vol int) float64 {
		den := vol
		if volAll-vol < den {
			den = volAll - vol
		}
		if den <= 0 {
			return 2 // worse than any real conductance
		}
		return float64(cutE) / float64(den)
	}
	best := phiOf(cutEdges, volU)

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for v := 0; v < n; v++ {
			if size == 1 && in[v] || size == n-1 && !in[v] {
				continue // never empty a side
			}
			dCut := 0
			for _, he := range g.Neighbors(v) {
				if int(he.Lat) > cert.Ell {
					continue
				}
				if in[he.To] == in[v] {
					dCut++ // same side now; crossing after the move
				} else {
					dCut--
				}
			}
			dVol := g.Degree(v)
			if in[v] {
				dVol = -dVol
			}
			if phi := phiOf(cutEdges+dCut, volU+dVol); phi < best-1e-15 {
				best = phi
				cutEdges += dCut
				volU += dVol
				if in[v] {
					size--
				} else {
					size++
				}
				in[v] = !in[v]
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	out := Certificate{Ell: cert.Ell, Phi: best}
	for v := 0; v < n; v++ {
		if in[v] {
			out.Set = append(out.Set, v)
		}
	}
	return out
}
