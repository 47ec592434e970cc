package graph

import (
	"errors"
	"fmt"
	"math"

	"gossip/internal/par"
	"gossip/internal/rng"
)

// Torus returns the rows×cols torus (grid with wraparound), uniform latency.
// Node (r,c) has ID r*cols+c. Requires rows, cols >= 3 so wrap edges do not
// duplicate grid edges.
func Torus(rows, cols, latency int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: Torus needs rows, cols >= 3 (got %d,%d)", rows, cols))
	}
	g := New(rows * cols)
	id := func(r, c int) NodeID { return ((r+rows)%rows)*cols + (c+cols)%cols }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.MustAddEdge(id(r, c), id(r, c+1), latency)
			g.MustAddEdge(id(r, c), id(r+1, c), latency)
		}
	}
	return g
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes, uniform
// latency. Node IDs are the binary labels; neighbors differ in one bit.
func Hypercube(dim, latency int) *Graph {
	if dim < 1 || dim > 20 {
		panic(fmt.Sprintf("graph: Hypercube dimension %d out of [1,20]", dim))
	}
	n := 1 << uint(dim)
	g := New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < dim; b++ {
			v := u ^ (1 << uint(b))
			if u < v {
				g.MustAddEdge(u, v, latency)
			}
		}
	}
	return g
}

// CompleteBinaryTree returns the complete binary tree on n nodes (heap
// layout: children of i are 2i+1 and 2i+2), uniform latency.
func CompleteBinaryTree(n, latency int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge((v-1)/2, v, latency)
	}
	return g
}

// RandomRegular returns a connected random d-regular-ish multigraph-free
// graph via the pairing heuristic with retries: every node ends with degree
// in [d-1, d+1] and the graph is connected (a path backbone is added if the
// pairing leaves it disconnected). n·d must be even for an exact pairing.
func RandomRegular(n, d int, latency int, seed uint64) *Graph {
	if d < 2 || d >= n {
		panic(fmt.Sprintf("graph: RandomRegular needs 2 <= d < n (got d=%d, n=%d)", d, n))
	}
	r := rng.Stream(seed, 0x7272) // "rr"
	g := New(n)
	// Pairing model: n·d half-edge stubs shuffled and paired; invalid pairs
	// (loops, duplicates) are skipped — degrees may fall one short.
	stubs := make([]NodeID, 0, n*d)
	for u := 0; u < n; u++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, u)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || g.HasEdge(u, v) || g.Degree(u) > d || g.Degree(v) > d {
			continue
		}
		g.MustAddEdge(u, v, latency)
	}
	// Guarantee connectivity.
	for v := 1; v < n; v++ {
		if g.HopDistances(0)[v] == Inf && !g.HasEdge(v-1, v) {
			g.MustAddEdge(v-1, v, latency)
		}
	}
	return g
}

// Caterpillar returns a path of length spine where every spine node carries
// legs pendant leaves — a high-degree, high-diameter family useful for
// exercising the D + Δ regime.
func Caterpillar(spine, legs, latency int) *Graph {
	if spine < 1 || legs < 0 {
		panic(fmt.Sprintf("graph: Caterpillar needs spine >= 1, legs >= 0 (got %d,%d)", spine, legs))
	}
	g := New(spine * (1 + legs))
	for v := 1; v < spine; v++ {
		g.MustAddEdge(v-1, v, latency)
	}
	for s := 0; s < spine; s++ {
		for l := 0; l < legs; l++ {
			g.MustAddEdge(s, spine+s*legs+l, latency)
		}
	}
	return g
}

// ChungLu returns a power-law random graph: node v gets expected degree
// w_v ∝ (v+1)^{-1/(β-1)} scaled to the target average degree, and each edge
// {u,v} appears independently with probability min(1, w_u·w_v/Σw). β in
// (2, 3] matches the social-network regime of Doerr, Fouz and Friedrich
// (related work: rumors spread in Θ(log n) there). A path backbone keeps
// the graph connected.
func ChungLu(n int, beta, avgDeg float64, latency int, seed uint64) *Graph {
	if n < 2 || beta <= 2 || avgDeg <= 0 {
		panic(fmt.Sprintf("graph: ChungLu needs n>=2, β>2, avgDeg>0 (got %d, %g, %g)", n, beta, avgDeg))
	}
	w := make([]float64, n)
	sum := 0.0
	exp := -1 / (beta - 1)
	for v := 0; v < n; v++ {
		w[v] = math.Pow(float64(v+1), exp)
		sum += w[v]
	}
	// Scale weights so the expected average degree is avgDeg.
	scale := avgDeg * float64(n) / sum
	total := 0.0
	for v := range w {
		w[v] *= scale
		total += w[v]
	}
	// The concrete stream keeps the O(n²) pair loop free of interface calls;
	// it draws what rng.Stream(seed, 0x636c) would.
	r := rng.NewSplitMix(seed, 0x636c) // "cl"
	g := New(n)
	pairs, ok := chungLuChunks(w, total, r)
	if !ok {
		pairs = chungLuInOrder(w, total, r)
	}
	for _, e := range pairs {
		g.MustAddEdge(int(e[0]), int(e[1]), latency)
	}
	for v := 1; v < n; v++ {
		if !g.HasEdge(v-1, v) && g.Degree(v) == 0 {
			g.MustAddEdge(v-1, v, latency)
		}
	}
	// Final connectivity stitch across remaining components.
	comps := g.Components()
	for i := 1; i < len(comps); i++ {
		g.MustAddEdge(comps[0][0], comps[i][0], latency)
	}
	return g
}

// chungLuInOrder draws ChungLu's pair loop from r and returns the pairs it
// keeps, in pair order.
func chungLuInOrder(w []float64, total float64, r rng.SplitMix) [][2]int32 {
	var pairs [][2]int32
	for u := range w {
		for v := u + 1; v < len(w); v++ {
			p := w[u] * w[v] / total
			if p > 1 {
				p = 1
			}
			if r.Float64() < p {
				pairs = append(pairs, [2]int32{int32(u), int32(v)})
			}
		}
	}
	return pairs
}

// chungLuChunks is chungLuInOrder drawn in row chunks across the par
// workers. Pair (u, v) takes draw Σ_{u'<u}(n−1−u') + (v−u−1) of r, and
// rng.SplitMix is counter-based, so a chunk starts its own copy of r at its
// first row's draw without drawing the rows before it. A Float64 that rounds
// to 1 (probability about 2⁻⁵⁴ a draw) is redrawn, which shifts every later
// draw; a chunk that meets one reports false, and the caller redraws the
// whole loop in order.
func chungLuChunks(w []float64, total float64, r rng.SplitMix) ([][2]int32, bool) {
	n := len(w)
	draws := func(u int) uint64 { return uint64(u)*uint64(n-1) - uint64(u)*uint64(u-1)/2 }
	// Chunks of about equal pair counts, several per worker so that the
	// short rows at the end do not leave a worker idle.
	chunks := 4 * par.MaxWorkers()
	starts := []int{0}
	for c, u := 1, 0; c < chunks; c++ {
		goal := draws(n) * uint64(c) / uint64(chunks)
		for u < n && draws(u) < goal {
			u++
		}
		if u > starts[len(starts)-1] {
			starts = append(starts, u)
		}
	}
	starts = append(starts, n)
	out, err := par.Map(len(starts)-1, func(c int) ([][2]int32, error) {
		s := r
		s.Skip(draws(starts[c]))
		var pairs [][2]int32
		for u := starts[c]; u < starts[c+1]; u++ {
			for v := u + 1; v < n; v++ {
				p := w[u] * w[v] / total
				if p > 1 {
					p = 1
				}
				// r.Float64, with its redraw refused.
				f := float64(s.Uint64()>>1) / (1 << 63)
				if f == 1 {
					return nil, errRedraw
				}
				if f < p {
					pairs = append(pairs, [2]int32{int32(u), int32(v)})
				}
			}
		}
		return pairs, nil
	})
	if err != nil {
		return nil, false
	}
	var all [][2]int32
	for _, pairs := range out {
		all = append(all, pairs...)
	}
	return all, true
}

// errRedraw reports a chunk whose stream hit a Float64 redraw.
var errRedraw = errors.New("graph: ChungLu draw needs a redraw")

// RingChords returns a cycle on n nodes augmented with roughly chords·n/2
// random chord edges (so expected chord-degree ≈ chords per node). Ring edges
// have latency 1; chords draw latencies uniformly from [1, latMax] — the
// paper's heterogeneous-latency regime: a fast local ring overlaid with slow
// long-range links. Construction is O(n·chords) time and memory, never
// touching the n² pair space, which makes it the generator of choice for the
// million-node cluster harness where GNP and ChungLu are unaffordable.
func RingChords(n, chords, latMax int, seed uint64) *Graph {
	if n < 3 || chords < 0 || latMax < 1 {
		panic(fmt.Sprintf("graph: RingChords needs n>=3, chords>=0, latMax>=1 (got %d, %d, %d)", n, chords, latMax))
	}
	r := rng.Stream(seed, 0x7263) // "rc"
	g := New(n)
	g.edges = make([]Edge, 0, n+n*chords/2)
	for v := 0; v < n; v++ {
		g.adj[v] = make([]HalfEdge, 0, 2+chords)
	}
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n, 1)
	}
	// Sample chord endpoints independently; collisions with existing edges
	// are skipped, not retried — on sparse graphs the loss is negligible and
	// the bound on attempts keeps the construction strictly linear.
	for i := 0; i < n*chords/2; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 1+r.Intn(latMax))
	}
	return g
}

// Components returns the connected components as slices of node IDs, in
// increasing order of their smallest member.
func (g *Graph) Components() [][]NodeID {
	seen := make([]bool, g.n)
	var comps [][]NodeID
	for start := 0; start < g.n; start++ {
		if seen[start] {
			continue
		}
		var comp []NodeID
		queue := []NodeID{start}
		seen[start] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, he := range g.adj[u] {
				if !seen[he.To] {
					seen[he.To] = true
					queue = append(queue, he.To)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// DegreeHistogram returns counts[d] = number of nodes with degree d.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int, 8)
	for u := 0; u < g.n; u++ {
		h[len(g.adj[u])]++
	}
	return h
}

// InducedSubgraph returns the subgraph induced by the given node set,
// along with the mapping from new IDs (0..len(set)-1) to original IDs.
func (g *Graph) InducedSubgraph(set []NodeID) (*Graph, []NodeID) {
	idx := make(map[NodeID]int, len(set))
	orig := make([]NodeID, len(set))
	for i, u := range set {
		idx[u] = i
		orig[i] = u
	}
	sub := New(len(set))
	for _, e := range g.edges {
		iu, okU := idx[e.U]
		iv, okV := idx[e.V]
		if okU && okV {
			sub.MustAddEdge(iu, iv, e.Latency)
		}
	}
	return sub, orig
}
