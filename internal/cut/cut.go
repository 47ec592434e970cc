// Package cut computes the paper's connectivity measures: weight-ℓ
// conductance φ_ℓ (Definition 1), weighted conductance φ* and critical
// latency ℓ* (Definition 2).
//
// Exact conductance enumerates all cuts and is exponential; it is provided
// for small graphs (n <= MaxExactN) and used to validate the heuristic,
// which combines spectral sweep cuts with sampled and structured cuts and
// returns an upper bound on φ_ℓ that is empirically tight on the families
// used in the experiments.
//
// The heuristic pipeline runs on a latency-sorted CSR view of the graph
// (graph.BuildCSR): the edges of G_ℓ are slice prefixes of contiguous
// neighbor rows instead of filtered scans, candidate orderings that do not
// depend on ℓ are computed once and shared across the whole φ_ℓ ladder, the
// spectral embedding of each level warm-starts from the previous level's
// converged vector, and independent ladder levels are fanned across the
// shared worker pool (internal/par) with an index-ordered merge, so results
// are byte-identical at any worker count. See engine.go and ladder.go; the
// pre-CSR pipeline is frozen in reference_test.go for the equivalence suite.
package cut

import (
	"errors"
	"fmt"
	"math"

	"gossip/internal/graph"
)

// ErrTooLarge is returned by exact computations on graphs beyond the
// exhaustive-enumeration limit.
var ErrTooLarge = errors.New("cut: graph too large for exact conductance")

// MaxExactN is the largest node count accepted by exact enumeration.
const MaxExactN = 24

// The exact enumerators index a 64-bit cut mask by node (1<<u), so
// MaxExactN may never exceed 63: this conversion fails to compile if the
// limit is raised past the mask width, and the n > MaxExactN checks below
// turn larger inputs into ErrTooLarge instead of a silent overflow.
const _ = uint64(63 - MaxExactN)

// PhiCut returns the weight-ℓ conductance of the cut (set, V∖set):
// |E_ℓ(U, V∖U)| / min(Vol(U), Vol(V∖U)). Volumes are taken in the full
// graph, per Definition 1. It returns an error when either side is empty or
// has zero volume.
func PhiCut(g *graph.Graph, set []graph.NodeID, ell int) (float64, error) {
	n := g.N()
	if len(set) == 0 || len(set) >= n {
		return 0, fmt.Errorf("cut: side sizes %d/%d invalid", len(set), n-len(set))
	}
	in := make([]bool, n)
	for _, u := range set {
		if u < 0 || u >= n {
			return 0, fmt.Errorf("cut: node %d out of range", u)
		}
		in[u] = true
	}
	cutEdges := 0
	for _, e := range g.Edges() {
		if e.Latency <= ell && in[e.U] != in[e.V] {
			cutEdges++
		}
	}
	volU := g.Volume(set)
	volAll := 2 * g.M()
	volOther := volAll - volU
	den := volU
	if volOther < den {
		den = volOther
	}
	if den == 0 {
		return 0, fmt.Errorf("cut: zero volume side")
	}
	return float64(cutEdges) / float64(den), nil
}

// PhiExact returns φ_ℓ(G) = min over all cuts of the weight-ℓ conductance,
// by exhaustive enumeration. It returns ErrTooLarge for g.N() > MaxExactN
// rather than overflowing the cut mask.
func PhiExact(g *graph.Graph, ell int) (float64, error) {
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("cut: need n >= 2, got %d", n)
	}
	if n > MaxExactN {
		return 0, fmt.Errorf("%w: n=%d > %d", ErrTooLarge, n, MaxExactN)
	}
	deg := make([]int, n)
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(u)
	}
	edges := g.Edges()
	volAll := 2 * g.M()
	best := math.Inf(1)
	// Fix node 0 on the left to halve the enumeration; mask enumerates the
	// membership of nodes 1..n-1 (mask 0 = the singleton cut {0}), skipping
	// only the full set.
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
		}
	}
	return best, nil
}

// PhiHeuristic returns an upper bound on φ_ℓ(G) by taking the best
// (smallest) conductance over a family of candidate cuts:
//
//   - the connectivity shortcut: if the latency-ℓ subgraph is disconnected,
//     φ_ℓ = 0 exactly;
//   - sweep cuts of a spectral embedding obtained by power iteration of the
//     lazy random walk on G_ℓ;
//   - sweep cuts of BFS distance orderings from sampled sources;
//   - random balanced cuts.
//
// On the constructed families of the paper (rings of cliques, layered rings,
// bipartite gadgets) the true minimum cut belongs to one of these families,
// so the bound is tight there; tests validate it against PhiExact.
func PhiHeuristic(g *graph.Graph, ell int, seed uint64) float64 {
	if g.N() < 2 {
		return 0
	}
	return newView(g, seed).heuristicCert(ell, 0).Phi
}

func identityOrder(n int) []graph.NodeID {
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// Ladder is the evaluation of φ_ℓ at one latency level.
type Ladder struct {
	Ell   int
	Phi   float64
	Ratio float64 // Phi / Ell — the quantity maximized by Definition 2
}

// Result reports the weighted conductance of a graph.
type Result struct {
	PhiStar float64  // φ*(G)
	EllStar int      // ℓ*, the critical latency
	Ladder  []Ladder // φ_ℓ for each distinct latency ℓ
	Exact   bool     // whether φ_ℓ values are exact
}
