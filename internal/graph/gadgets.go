package graph

import (
	"fmt"
	"math"

	"gossip/internal/rng"
)

// Pair is an element of A×B in the guessing game, expressed as indices into
// the left and right vertex sets of a gadget.
type Pair struct {
	A, B int
}

// Gadget is the guessing-game network of Section 3.2 (Figure 1): a complete
// bipartite graph on L = {0..m-1} and R = {m..2m-1} plus a latency-1 clique
// on L (and on R when symmetric, i.e. G_sym(P)). Cross edges in the target
// set are "fast" (latency 1, or ℓ in the Theorem 7 network); all other cross
// edges are "slow".
type Gadget struct {
	G      *Graph
	M      int    // |L| = |R|
	Target []Pair // the oracle's hidden fast pairs
	Sym    bool
	Slow   int // latency assigned to non-target cross edges
}

// Left returns the node ID of the i-th left vertex.
func (gd *Gadget) Left(i int) NodeID { return i }

// Right returns the node ID of the j-th right vertex.
func (gd *Gadget) Right(j int) NodeID { return gd.M + j }

// NewGadget builds G(P) (sym=false) or G_sym(P) (sym=true) on 2m nodes with
// the given target set; non-target cross edges get latency slow.
func NewGadget(m int, target []Pair, sym bool, slow int) (*Gadget, error) {
	return newGadget(m, target, sym, slow, 1)
}

// newGadget is NewGadget with target cross edges at latency fast (Theorem 7
// uses ℓ) instead of 1.
func newGadget(m int, target []Pair, sym bool, slow, fast int) (*Gadget, error) {
	if m < 2 {
		return nil, fmt.Errorf("graph: gadget needs m >= 2, got %d", m)
	}
	if slow < 1 {
		return nil, fmt.Errorf("graph: gadget slow latency %d < 1", slow)
	}
	isFast := make(map[Pair]bool, len(target))
	for _, p := range target {
		if p.A < 0 || p.A >= m || p.B < 0 || p.B >= m {
			return nil, fmt.Errorf("graph: target pair %v out of range [0,%d)", p, m)
		}
		isFast[p] = true
	}
	// Every pair below is added once, so the adds are unchecked.
	b := New(2 * m)
	// Clique on L (latency 1).
	for u := 0; u < m; u++ {
		for v := u + 1; v < m; v++ {
			b.add(u, v, 1)
		}
	}
	if sym {
		for u := 0; u < m; u++ {
			for v := u + 1; v < m; v++ {
				b.add(m+u, m+v, 1)
			}
		}
	}
	// Complete bipartite cross edges.
	for a := 0; a < m; a++ {
		for j := 0; j < m; j++ {
			lat := slow
			if isFast[Pair{A: a, B: j}] {
				lat = fast
			}
			b.add(a, m+j, lat)
		}
	}
	return &Gadget{G: b.Build(), M: m, Target: append([]Pair(nil), target...), Sym: sym, Slow: slow}, nil
}

// SingletonTarget returns a single uniformly random pair from A×B — the
// predicate of Lemma 4 and Theorem 6.
func SingletonTarget(m int, seed uint64) []Pair {
	r := rng.Stream(seed, 0x7431) // "t1"
	return []Pair{{A: r.Intn(m), B: r.Intn(m)}}
}

// RandomTarget returns the Random_p predicate of Lemma 5: each pair of A×B
// joins the target independently with probability p.
func RandomTarget(m int, p float64, seed uint64) []Pair {
	r := rng.Stream(seed, 0x7470) // "tp"
	var t []Pair
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			if r.Float64() < p {
				t = append(t, Pair{A: a, B: b})
			}
		}
	}
	return t
}

// TheoremSixNetwork is the n-node network H of Theorem 6: the gadget
// G(2Δ, singleton) combined with a latency-1 clique on the remaining n-2Δ
// vertices, one of which attaches to a single gadget vertex. Local broadcast
// on H requires Ω(Δ) rounds.
type TheoremSixNetwork struct {
	Gadget *Gadget
	G      *Graph
	Delta  int
}

// NewTheoremSixNetwork builds H with max degree Θ(Δ) on n >= 2Δ nodes.
// Slow cross edges get latency n as in the paper. The symmetric gadget
// G_sym is used so the weighted diameter is O(1): the single fast cross
// edge is reachable from every right vertex through the latency-1 R-clique.
func NewTheoremSixNetwork(n, delta int, seed uint64) (*TheoremSixNetwork, error) {
	if delta < 2 || 2*delta > n {
		return nil, fmt.Errorf("graph: theorem 6 needs 2 <= Δ and 2Δ <= n (got Δ=%d, n=%d)", delta, n)
	}
	gd, err := NewGadget(delta, SingletonTarget(delta, seed), true, n)
	if err != nil {
		return nil, err
	}
	b := New(n)
	for id := 0; id < gd.G.M(); id++ {
		e := gd.G.Edge(id)
		b.add(e.U, e.V, e.Latency)
	}
	// Clique on the remaining n-2Δ vertices.
	for u := 2 * delta; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.add(u, v, 1)
		}
	}
	// Attach the clique (if any) to a single gadget vertex.
	if n > 2*delta {
		b.add(2*delta, 0, 1)
	}
	g := b.Build()
	return &TheoremSixNetwork{Gadget: &Gadget{G: g, M: gd.M, Target: gd.Target, Sym: true, Slow: n}, G: g, Delta: delta}, nil
}

// TheoremSevenNetwork is the 2n-node network of Theorem 7: the gadget
// G(Random_φ) where each cross edge is fast (latency ℓ) independently with
// probability φ and slow (latency 2n) otherwise. Whp it has weighted
// diameter O(ℓ) and weighted conductance Θ(φ), yet local broadcast needs
// Ω(1/φ + ℓ) rounds (Ω(log n/φ + ℓ) for push-pull).
type TheoremSevenNetwork struct {
	Gadget *Gadget
	G      *Graph
	Phi    float64
	Ell    int
}

// NewTheoremSevenNetwork builds the Theorem 7 network on 2n nodes.
func NewTheoremSevenNetwork(n int, phi float64, ell int, seed uint64) (*TheoremSevenNetwork, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: theorem 7 needs n >= 2, got %d", n)
	}
	if phi <= 0 || phi > 0.5 {
		return nil, fmt.Errorf("graph: theorem 7 needs 0 < φ <= 1/2, got %g", phi)
	}
	if ell < 1 {
		return nil, fmt.Errorf("graph: theorem 7 needs ℓ >= 1, got %d", ell)
	}
	// Fast cross edges carry latency ℓ (not 1) in this construction.
	gd, err := newGadget(n, RandomTarget(n, phi, seed), false, 2*n, ell)
	if err != nil {
		return nil, err
	}
	return &TheoremSevenNetwork{Gadget: gd, G: gd.G, Phi: phi, Ell: ell}, nil
}

// RingNetwork is the Theorem 8 construction (Figure 2): k node layers of
// size s wired in a ring; each layer is a latency-1 clique; consecutive
// layers form a complete bipartite graph whose cross edges all have latency
// ℓ except one uniformly random fast edge of latency 1 per layer pair.
type RingNetwork struct {
	G      *Graph
	Layers [][]NodeID // Layers[i] lists the node IDs of layer i
	K, S   int
	Alpha  float64
	Ell    int
	Fast   []Edge // the k hidden fast cross edges, one per layer pair
	C      float64
}

// NewRingNetwork builds the Theorem 8 network targeting 2n nodes with
// parameter α ∈ (0, 1] and cross-edge latency ℓ. The paper sets
// c = 3/4 + (1/4)·sqrt(9 − 8/(nα)), layer size s = cnα, layer count
// k = 2/(cα); we round s and k to integers, so the realized node count is
// k·s ≈ 2n.
func NewRingNetwork(n int, alpha float64, ell int, seed uint64) (*RingNetwork, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("graph: ring network needs α ∈ (0,1], got %g", alpha)
	}
	if ell < 1 {
		return nil, fmt.Errorf("graph: ring network needs ℓ >= 1, got %d", ell)
	}
	na := float64(n) * alpha
	if na < 1 {
		return nil, fmt.Errorf("graph: ring network needs nα >= 1 (n=%d, α=%g)", n, alpha)
	}
	disc := 9 - 8/na
	if disc < 0 {
		disc = 0
	}
	c := 0.75 + 0.25*math.Sqrt(disc)
	s := int(math.Round(c * na))
	if s < 2 {
		s = 2
	}
	k := int(math.Round(2 * float64(n) / float64(s)))
	if k < 3 {
		k = 3
	}
	b := New(k * s)
	layers := make([][]NodeID, k)
	for i := 0; i < k; i++ {
		layers[i] = make([]NodeID, s)
		for j := 0; j < s; j++ {
			layers[i][j] = i*s + j
		}
		// Latency-1 clique inside the layer.
		for a := 0; a < s; a++ {
			for c := a + 1; c < s; c++ {
				b.add(layers[i][a], layers[i][c], 1)
			}
		}
	}
	r := rng.Stream(seed, 0x7269) // "ri"
	fast := make([]Edge, 0, k)
	for i := 0; i < k; i++ {
		next := (i + 1) % k
		fa, fb := r.Intn(s), r.Intn(s)
		for a := 0; a < s; a++ {
			for c := 0; c < s; c++ {
				lat := ell
				if a == fa && c == fb {
					lat = 1
				}
				b.add(layers[i][a], layers[next][c], lat)
			}
		}
		fast = append(fast, Edge{U: layers[i][fa], V: layers[next][fb], Latency: 1})
	}
	return &RingNetwork{G: b.Build(), Layers: layers, K: k, S: s, Alpha: alpha, Ell: ell, Fast: fast, C: c}, nil
}

// HalfCut returns the cut C of Lemma 9: the ring split into two contiguous
// halves of ⌊k/2⌋ and ⌈k/2⌉ layers so no intra-layer clique edge is cut.
// It returns the node set of the first half.
func (rn *RingNetwork) HalfCut() []NodeID {
	half := rn.K / 2
	var set []NodeID
	for i := 0; i < half; i++ {
		set = append(set, rn.Layers[i]...)
	}
	return set
}
