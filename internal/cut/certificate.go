package cut

import (
	"fmt"

	"gossip/internal/graph"
)

// Certificate is a cut witnessing a conductance value: PhiCut(G, Set, Ell)
// equals Phi.
type Certificate struct {
	Set []graph.NodeID
	Ell int
	Phi float64
}

// PhiExactCut returns φ_ℓ(G) together with a minimizing cut, by exhaustive
// enumeration (a one-rung exactLadder). It returns ErrTooLarge for
// g.N() > MaxExactN rather than overflowing the cut mask.
func PhiExactCut(g *graph.Graph, ell int) (Certificate, error) {
	certs, err := exactLadder(g, []int{ell})
	if err != nil {
		return Certificate{}, err
	}
	return certs[0], nil
}

// PhiHeuristicCut returns the best cut the heuristic finds, as a
// certificate: its Phi is an upper bound on φ_ℓ(G) and is realized by Set.
// When the latency-ℓ subgraph is disconnected, the certificate is one of
// its components (φ_ℓ = 0).
func PhiHeuristicCut(g *graph.Graph, ell int, seed uint64) (Certificate, error) {
	if g.N() < 2 {
		return Certificate{}, fmt.Errorf("cut: need n >= 2, got %d", g.N())
	}
	return newView(g, seed).heuristicCert(ell, 0), nil
}
