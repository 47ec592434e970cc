// Package graph implements the weighted undirected graphs of the paper:
// connected networks whose edges carry integer latencies. It provides the
// core data structure, shortest-path and diameter computations, standard
// generators, and the exact lower-bound gadget constructions of Sections 3.2
// and 3.4 (Figures 1 and 2).
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node; nodes are always 0..N-1.
type NodeID = int

// Edge is an undirected edge with an integer latency >= 1.
type Edge struct {
	U, V    NodeID
	Latency int
}

// HalfEdge is one endpoint's view of an incident edge.
type HalfEdge struct {
	To      NodeID
	Latency int
	ID      int // index into Graph.Edges()
}

// Graph is an undirected graph with integer edge latencies. The zero value
// is not usable; construct with New. An edge's latency is set by the AddEdge
// that inserts it and is final: the paper's latency-weighted graph is part of
// the input, so views packed from a built graph (CSR, AdjCSR) stay current.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]HalfEdge
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n, adj: make([][]HalfEdge, n)}
}

// N reports the number of nodes.
func (g *Graph) N() int { return g.n }

// M reports the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// AddEdge inserts an undirected edge {u,v} with the given latency and returns
// its edge ID. It returns an error for self loops, duplicate edges,
// out-of-range endpoints, or latencies < 1.
func (g *Graph) AddEdge(u, v NodeID, latency int) (int, error) {
	switch {
	case u < 0 || u >= g.n || v < 0 || v >= g.n:
		return 0, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	case u == v:
		return 0, fmt.Errorf("graph: self loop at %d", u)
	case latency < 1:
		return 0, fmt.Errorf("graph: latency %d < 1 on edge (%d,%d)", latency, u, v)
	}
	for _, he := range g.adj[u] {
		if he.To == v {
			return 0, fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
		}
	}
	return g.addFresh(u, v, latency), nil
}

// addFresh is AddEdge without its checks, in O(1): for generators that emit
// each pair of distinct in-range nodes at most once, with a latency >= 1.
func (g *Graph) addFresh(u, v NodeID, latency int) int {
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, Latency: latency})
	g.adj[u] = append(g.adj[u], HalfEdge{To: v, Latency: latency, ID: id})
	g.adj[v] = append(g.adj[v], HalfEdge{To: u, Latency: latency, ID: id})
	return id
}

// MustAddEdge is AddEdge for generators building well-formed graphs; it
// panics on error (a construction bug, not a runtime condition).
func (g *Graph) MustAddEdge(u, v NodeID, latency int) int {
	id, err := g.AddEdge(u, v, latency)
	if err != nil {
		panic(err)
	}
	return id
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	for _, he := range g.adj[u] {
		if he.To == v {
			return true
		}
	}
	return false
}

// EdgeLatency returns the latency of edge {u,v} and whether it exists.
func (g *Graph) EdgeLatency(u, v NodeID) (int, bool) {
	for _, he := range g.adj[u] {
		if he.To == v {
			return he.Latency, true
		}
	}
	return 0, false
}

// Neighbors returns u's incident half-edges in insertion order. The caller
// must not modify the returned slice.
func (g *Graph) Neighbors(u NodeID) []HalfEdge { return g.adj[u] }

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// MaxDegree returns Δ, the maximum node degree.
func (g *Graph) MaxDegree() int {
	d := 0
	for u := 0; u < g.n; u++ {
		if len(g.adj[u]) > d {
			d = len(g.adj[u])
		}
	}
	return d
}

// Volume returns Vol(U) = number of edge endpoints at nodes of U, i.e. the
// sum of degrees over U (paper, Section 2).
func (g *Graph) Volume(set []NodeID) int {
	v := 0
	for _, u := range set {
		v += len(g.adj[u])
	}
	return v
}

// MaxLatency returns ℓ_max, the largest edge latency (0 for edgeless graphs).
func (g *Graph) MaxLatency() int {
	m := 0
	for _, e := range g.edges {
		if e.Latency > m {
			m = e.Latency
		}
	}
	return m
}

// Latencies returns the sorted distinct edge latencies.
func (g *Graph) Latencies() []int {
	seen := make(map[int]bool, 8)
	for _, e := range g.edges {
		seen[e.Latency] = true
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	cp := New(g.n)
	cp.edges = append([]Edge(nil), g.edges...)
	for u := range g.adj {
		cp.adj[u] = append([]HalfEdge(nil), g.adj[u]...)
	}
	return cp
}

// Subgraph returns the subgraph of g containing only edges with
// latency <= maxLatency (the graph G_ℓ of Section 5.1). Node set unchanged.
func (g *Graph) Subgraph(maxLatency int) *Graph {
	sub := New(g.n)
	for _, e := range g.edges {
		if e.Latency <= maxLatency {
			sub.MustAddEdge(e.U, e.V, e.Latency)
		}
	}
	return sub
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d ℓmax=%d}", g.n, len(g.edges), g.MaxDegree(), g.MaxLatency())
}
