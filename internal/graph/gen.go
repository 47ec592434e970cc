package graph

import (
	"fmt"

	"gossip/internal/rng"
)

// Clique returns the complete graph K_n with uniform edge latency.
func Clique(n, latency int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.addFresh(u, v, latency)
		}
	}
	return g
}

// Star returns a star with center 0 and n-1 leaves, uniform latency.
func Star(n, latency int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v, latency)
	}
	return g
}

// Path returns the path 0-1-...-(n-1) with uniform latency.
func Path(n, latency int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, latency)
	}
	return g
}

// Cycle returns the n-cycle with uniform latency (n >= 3).
func Cycle(n, latency int) *Graph {
	g := Path(n, latency)
	if n >= 3 {
		g.MustAddEdge(n-1, 0, latency)
	}
	return g
}

// Grid returns the rows×cols grid graph with uniform latency. Node (r,c) has
// ID r*cols+c.
func Grid(rows, cols, latency int) *Graph {
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			if c+1 < cols {
				g.MustAddEdge(id, id+1, latency)
			}
			if r+1 < rows {
				g.MustAddEdge(id, id+cols, latency)
			}
		}
	}
	return g
}

// GNP returns an Erdős–Rényi random graph G(n,p) with uniform latency,
// with a Hamiltonian-path backbone added when connect is true so the result
// is always connected (the extra edges only raise conductance marginally).
func GNP(n int, p float64, latency int, connect bool, seed uint64) *Graph {
	g := New(n)
	r := rng.Stream(seed, 0x6e70) // "np"
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.MustAddEdge(u, v, latency)
			}
		}
	}
	if connect {
		for v := 1; v < n; v++ {
			if !g.HasEdge(v-1, v) {
				g.MustAddEdge(v-1, v, latency)
			}
		}
	}
	return g
}

// RingOfCliques returns k cliques of size s (latency 1 inside each clique)
// joined in a ring by single bridge edges of latency bridgeLatency. This
// family has conductance Θ(1/(k·s)) at latency bridgeLatency and is the
// workhorse for the push-pull scaling experiments: its weighted conductance
// and critical latency are known by construction.
func RingOfCliques(k, s, bridgeLatency int) *Graph {
	if k < 2 || s < 2 {
		panic(fmt.Sprintf("graph: RingOfCliques needs k>=2, s>=2 (got %d,%d)", k, s))
	}
	g := New(k * s)
	for c := 0; c < k; c++ {
		base := c * s
		for u := 0; u < s; u++ {
			for v := u + 1; v < s; v++ {
				g.addFresh(base+u, base+v, 1)
			}
		}
	}
	for c := 0; c < k; c++ {
		next := (c + 1) % k
		// Bridge from the last node of clique c to the first node of the next.
		g.MustAddEdge(c*s+s-1, next*s, bridgeLatency)
	}
	return g
}

// Dumbbell returns two cliques of size s joined by a single edge of the given
// latency — the classic low-conductance topology.
func Dumbbell(s, bridgeLatency int) *Graph {
	g := New(2 * s)
	for u := 0; u < s; u++ {
		for v := u + 1; v < s; v++ {
			g.addFresh(u, v, 1)
			g.addFresh(s+u, s+v, 1)
		}
	}
	g.MustAddEdge(s-1, s, bridgeLatency)
	return g
}

// RandomLatencies returns a copy of g whose edge latencies are drawn
// uniformly from [lo, hi], in edge ID order. It is O(n + m): the copy's
// adjacency rows are rewritten once from its edge list before it is
// returned.
func RandomLatencies(g *Graph, lo, hi int, seed uint64) *Graph {
	if lo < 1 || hi < lo {
		panic(fmt.Sprintf("graph: bad latency range [%d,%d]", lo, hi))
	}
	cp := g.Clone()
	r := rng.Stream(seed, 0x6c61) // "la"
	for id := range cp.edges {
		cp.edges[id].Latency = lo + r.Intn(hi-lo+1)
	}
	for _, row := range cp.adj {
		for i := range row {
			row[i].Latency = cp.edges[row[i].ID].Latency
		}
	}
	return cp
}
