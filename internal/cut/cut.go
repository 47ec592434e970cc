// Package cut computes the paper's connectivity measures: weight-ℓ
// conductance φ_ℓ (Definition 1), weighted conductance φ* and critical
// latency ℓ* (Definition 2).
//
// Exact conductance enumerates all cuts and is exponential; it is provided
// for small graphs (n <= MaxExactN) and used to validate the heuristic,
// which combines spectral sweep cuts with sampled and structured cuts and
// returns an upper bound on φ_ℓ that is empirically tight on the families
// used in the experiments. One enumerator (exact.go) serves the whole φ_ℓ
// ladder in a single pass: with node 0 fixed on the left, cut masks walk in
// Gray-code order, so each step flips one node and moves the volume and each
// latency class's cut count by that node's neighbour masks; prefix sums over
// the classes give every rung's cut. Ties break to the numerically smallest
// mask, so each certificate is the one a plain ascending scan would keep.
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

	"gossip/internal/graph"
)

// ErrTooLarge is returned by exact computations on graphs beyond the
// exhaustive-enumeration limit.
var ErrTooLarge = errors.New("cut: graph too large for exact conductance")

// MaxExactN is the largest node count accepted by exact enumeration.
const MaxExactN = 24

// The exact enumerator indexes a 64-bit cut mask by node (1<<u), so
// MaxExactN may never exceed 63: this conversion fails to compile if the
// limit is raised past the mask width, and exactLadder's n > MaxExactN check
// turns larger inputs into ErrTooLarge instead of a silent overflow.
const _ = uint64(63 - MaxExactN)

// PhiCut returns the weight-ℓ conductance of the cut (set, V∖set):
// |E_ℓ(U, V∖U)| / min(Vol(U), Vol(V∖U)). Volumes are taken in the full
// graph, per Definition 1. It returns an error when either side is empty or
// has zero volume, or when set names a node twice or out of range.
func PhiCut(g *graph.Graph, set []graph.NodeID, ell int) (float64, error) {
	n := g.N()
	in := make([]bool, n)
	for _, u := range set {
		if u < 0 || u >= n {
			return 0, fmt.Errorf("cut: node %d out of range", u)
		}
		if in[u] {
			return 0, fmt.Errorf("cut: node %d repeated", u)
		}
		in[u] = true
	}
	if len(set) == 0 || len(set) >= n {
		return 0, fmt.Errorf("cut: side sizes %d/%d invalid", len(set), n-len(set))
	}
	cutEdges := 0
	for id := 0; id < g.M(); id++ {
		if e := g.Edge(id); e.Latency <= ell && in[e.U] != in[e.V] {
			cutEdges++
		}
	}
	volU := g.Volume(set)
	den := min(volU, 2*g.M()-volU)
	if den == 0 {
		return 0, fmt.Errorf("cut: zero volume side")
	}
	return float64(cutEdges) / float64(den), nil
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
// so the bound is tight there; tests validate it against PhiExactCut.
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
