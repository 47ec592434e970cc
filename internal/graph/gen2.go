package graph

import (
	"fmt"
	"math"

	"gossip/internal/rng"
)

// Torus returns the rows×cols torus (grid with wraparound), uniform latency.
// Node (r,c) has ID r*cols+c. Requires rows, cols >= 3 so wrap edges do not
// duplicate grid edges.
func Torus(rows, cols, latency int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: Torus needs rows, cols >= 3 (got %d,%d)", rows, cols))
	}
	b := New(rows * cols)
	id := func(r, c int) NodeID { return ((r+rows)%rows)*cols + (c+cols)%cols }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.MustAddEdge(id(r, c), id(r, c+1), latency)
			b.MustAddEdge(id(r, c), id(r+1, c), latency)
		}
	}
	return b.Build()
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes, uniform
// latency. Node IDs are the binary labels; neighbors differ in one bit.
func Hypercube(dim, latency int) *Graph {
	if dim < 1 || dim > 20 {
		panic(fmt.Sprintf("graph: Hypercube dimension %d out of [1,20]", dim))
	}
	n := 1 << uint(dim)
	b := New(n)
	for u := 0; u < n; u++ {
		for bit := 0; bit < dim; bit++ {
			v := u ^ (1 << uint(bit))
			if u < v {
				b.MustAddEdge(u, v, latency)
			}
		}
	}
	return b.Build()
}

// CompleteBinaryTree returns the complete binary tree on n nodes (heap
// layout: children of i are 2i+1 and 2i+2), uniform latency.
func CompleteBinaryTree(n, latency int) *Graph {
	b := New(n)
	for v := 1; v < n; v++ {
		b.MustAddEdge((v-1)/2, v, latency)
	}
	return b.Build()
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
	b := New(n)
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
		if u == v || b.HasEdge(u, v) || b.Degree(u) > d || b.Degree(v) > d {
			continue
		}
		b.MustAddEdge(u, v, latency)
	}
	// Guarantee connectivity: join each component's smallest node v to v-1,
	// which node 0's component or an earlier join has connected to 0.
	b.stitch(latency, func(v NodeID) NodeID { return v - 1 })
	return b.Build()
}

// Caterpillar returns a path of length spine where every spine node carries
// legs pendant leaves — a high-degree, high-diameter family useful for
// exercising the D + Δ regime.
func Caterpillar(spine, legs, latency int) *Graph {
	if spine < 1 || legs < 0 {
		panic(fmt.Sprintf("graph: Caterpillar needs spine >= 1, legs >= 0 (got %d,%d)", spine, legs))
	}
	b := New(spine * (1 + legs))
	for v := 1; v < spine; v++ {
		b.MustAddEdge(v-1, v, latency)
	}
	for s := 0; s < spine; s++ {
		for l := 0; l < legs; l++ {
			b.MustAddEdge(s, spine+s*legs+l, latency)
		}
	}
	return b.Build()
}

// ChungLu returns a power-law random graph: node v gets expected degree
// w_v ∝ (v+1)^{-1/(β-1)} scaled to the target average degree, and each edge
// {u,v} appears independently with probability min(1, w_u·w_v/Σw). β in
// (2, 3] matches the social-network regime of Doerr, Fouz and Friedrich
// (related work: rumors spread in Θ(log n) there). A path backbone keeps
// the graph connected. Construction is O(n + m) (chungLuPairs).
func ChungLu(n int, beta, avgDeg float64, latency int, seed uint64) *Graph {
	if n < 2 || beta <= 2 || avgDeg <= 0 {
		panic(fmt.Sprintf("graph: ChungLu needs n>=2, β>2, avgDeg>0 (got %d, %g, %g)", n, beta, avgDeg))
	}
	w, total := chungLuWeights(n, beta, avgDeg)
	// Expected edges, plus a little for the variance and the backbone.
	b := newBuilder(n, int(total/2)+int(math.Sqrt(total))+n/16)
	r := rng.NewSplitMix(seed, 0x636c) // "cl"
	chungLuPairs(w, total, &r, func(u, v int) { b.add(u, v, latency) })
	for v := 1; v < n; v++ {
		// An isolated v has no edge to v-1 yet.
		if b.Degree(v) == 0 {
			b.add(v-1, v, latency)
		}
	}
	// Final connectivity stitch across remaining components, which share
	// no edge.
	b.stitch(latency, func(NodeID) NodeID { return 0 })
	return b.Build()
}

// chungLuWeights returns ChungLu's expected degrees, decreasing in v, and
// their total.
func chungLuWeights(n int, beta, avgDeg float64) ([]float64, float64) {
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
	return w, total
}

// chungLuPairs calls keep(u, v) for each pair u < v it keeps, in pair order,
// keeping each independently with probability min(1, w[u]·w[v]/total). It
// draws by Miller–Hagberg skip sampling ("Efficient generation of networks
// with given expected degrees", WAW 2011): along row u, a geometric skip with
// parameter p jumps over the pairs a probability-p coin would reject, and
// the pair landed on is kept with probability q/p, q its own probability.
// That is exact only while q <= p along the row, so w must be non-increasing
// (ChungLu's weights are). A row costs O(1 + its kept pairs) draws from r.
func chungLuPairs(w []float64, total float64, r *rng.SplitMix, keep func(u, v int)) {
	n := len(w)
	for u := 0; u < n-1; u++ {
		p := math.Min(1, w[u]*w[u+1]/total)
		for v := u + 1; v < n && p > 0; v++ {
			if p < 1 {
				// Clamped before the conversion: for a tiny p the quotient
				// overflows int (or is +Inf), and such a skip ends the row.
				skip := math.Log1p(-r.Float64()) / math.Log1p(-p)
				if !(skip < float64(n-v)) {
					break
				}
				v += int(skip)
			}
			q := math.Min(1, w[u]*w[v]/total)
			if r.Float64() < q/p {
				keep(u, v)
			}
			p = q
		}
	}
}

// RingChords returns a cycle on n nodes augmented with roughly chords·n/2
// random chord edges (so expected chord-degree ≈ chords per node). Ring edges
// have latency 1; chords draw latencies uniformly from [1, latMax] — the
// paper's heterogeneous-latency regime: a fast local ring overlaid with slow
// long-range links. Construction is O(n·chords) time and memory, never
// touching the n² pair space; it is the million-node cluster harness's
// generator.
func RingChords(n, chords, latMax int, seed uint64) *Graph {
	if n < 3 || chords < 0 || latMax < 1 {
		panic(fmt.Sprintf("graph: RingChords needs n>=3, chords>=0, latMax>=1 (got %d, %d, %d)", n, chords, latMax))
	}
	r := rng.Stream(seed, 0x7263) // "rc"
	b := newBuilder(n, n+n*chords/2)
	for v := 0; v < n; v++ {
		b.add(v, (v+1)%n, 1)
	}
	// Sample chord endpoints independently; collisions with existing edges
	// are skipped, not retried — on sparse graphs the loss is negligible and
	// the bound on attempts keeps the construction strictly linear.
	for i := 0; i < n*chords/2; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v || b.HasEdge(u, v) {
			continue
		}
		b.add(u, v, 1+r.Intn(latMax))
	}
	return b.Build()
}

// Components returns the connected components as slices of node IDs, in
// increasing order of their smallest member.
func (g *Graph) Components() [][]NodeID {
	seen := make([]bool, g.N())
	var comps [][]NodeID
	for start := 0; start < g.N(); start++ {
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
			for _, e := range g.Neighbors(u) {
				if !seen[e.To] {
					seen[e.To] = true
					queue = append(queue, int(e.To))
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
