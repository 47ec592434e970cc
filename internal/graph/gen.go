package graph

import (
	"fmt"

	"gossip/internal/rng"
)

// Clique returns the complete graph K_n with uniform edge latency.
func Clique(n, latency int) *Graph {
	b := newBuilder(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.add(u, v, latency)
		}
	}
	return b.Build()
}

// Star returns a star with center 0 and n-1 leaves, uniform latency.
func Star(n, latency int) *Graph {
	b := New(n)
	for v := 1; v < n; v++ {
		b.MustAddEdge(0, v, latency)
	}
	return b.Build()
}

// Path returns the path 0-1-...-(n-1) with uniform latency.
func Path(n, latency int) *Graph { return path(n, latency).Build() }

func path(n, latency int) *Builder {
	b := New(n)
	for v := 1; v < n; v++ {
		b.MustAddEdge(v-1, v, latency)
	}
	return b
}

// Cycle returns the n-cycle with uniform latency (n >= 3).
func Cycle(n, latency int) *Graph {
	b := path(n, latency)
	if n >= 3 {
		b.MustAddEdge(n-1, 0, latency)
	}
	return b.Build()
}

// Grid returns the rows×cols grid graph with uniform latency. Node (r,c) has
// ID r*cols+c.
func Grid(rows, cols, latency int) *Graph {
	b := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			if c+1 < cols {
				b.MustAddEdge(id, id+1, latency)
			}
			if r+1 < rows {
				b.MustAddEdge(id, id+cols, latency)
			}
		}
	}
	return b.Build()
}

// GNP returns an Erdős–Rényi random graph G(n,p) with uniform latency,
// with a Hamiltonian-path backbone added when connect is true so the result
// is always connected (the extra edges only raise conductance marginally).
func GNP(n int, p float64, latency int, connect bool, seed uint64) *Graph {
	b := New(n)
	r := rng.Stream(seed, 0x6e70) // "np"
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				b.MustAddEdge(u, v, latency)
			}
		}
	}
	if connect {
		for v := 1; v < n; v++ {
			if !b.HasEdge(v-1, v) {
				b.MustAddEdge(v-1, v, latency)
			}
		}
	}
	return b.Build()
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
	b := newBuilder(k*s, k*s*(s-1)/2+k)
	for c := 0; c < k; c++ {
		base := c * s
		for u := 0; u < s; u++ {
			for v := u + 1; v < s; v++ {
				b.add(base+u, base+v, 1)
			}
		}
	}
	for c := 0; c < k; c++ {
		next := (c + 1) % k
		// Bridge from the last node of clique c to the first node of the next.
		b.add(c*s+s-1, next*s, bridgeLatency)
	}
	return b.Build()
}

// Dumbbell returns two cliques of size s joined by a single edge of the given
// latency — the classic low-conductance topology.
func Dumbbell(s, bridgeLatency int) *Graph {
	b := newBuilder(2*s, s*(s-1)+1)
	for u := 0; u < s; u++ {
		for v := u + 1; v < s; v++ {
			b.add(u, v, 1)
			b.add(s+u, s+v, 1)
		}
	}
	b.add(s-1, s, bridgeLatency)
	return b.Build()
}

// RandomLatencies returns a graph with g's edges, in the same order, whose
// latencies are drawn uniformly from [lo, hi] in edge ID order. It is
// O(n + m): the latencies are drawn as the edges are added, before Build.
func RandomLatencies(g *Graph, lo, hi int, seed uint64) *Graph {
	if lo < 1 || hi < lo {
		panic(fmt.Sprintf("graph: bad latency range [%d,%d]", lo, hi))
	}
	b := newBuilder(g.N(), g.M())
	r := rng.Stream(seed, 0x6c61) // "la"
	for id := range g.edges {
		e := g.Edge(id)
		b.add(e.U, e.V, lo+r.Intn(hi-lo+1))
	}
	return b.Build()
}
