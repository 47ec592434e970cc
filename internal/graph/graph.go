// Package graph implements the weighted undirected graphs of the paper:
// connected networks whose edges carry integer latencies. It provides the
// core data structure, shortest-path and diameter computations, standard
// generators, and the exact lower-bound gadget constructions of Sections 3.2
// and 3.4 (Figures 1 and 2).
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// NodeID identifies a node; nodes are always 0..N-1.
type NodeID = int

// Edge is an undirected edge with an integer latency >= 1.
type Edge struct {
	U, V    NodeID
	Latency int
}

// Entry is one half-edge: an entry of a node's row in a Graph.
type Entry struct {
	To   int32 // the neighbor
	Lat  int32 // the edge latency
	ID   int32 // the edge id, in [0, M)
	Peer int32 // the index of this edge in To's row
}

// edgeRec is edge e's cross index: its flat positions in the rows of its two
// endpoints. endU is the endpoint named first when the edge was added, posU
// the position in endU's row and posV the position in the other's.
type edgeRec struct {
	endU, posU, posV int32
}

// Graph is an undirected graph with integer edge latencies, fixed once
// built: the paper's latency-weighted graph is part of the input. Construct
// one with New and Builder.Build.
//
// The graph is stored as compressed sparse rows in *adjacency order*: the
// half-edges of node u are one contiguous run of 16-byte entries (four to a
// cache line), in the order u's edges were added, plus a 12-byte cross index
// per edge. The per-message operations both engines make
//
//   - fetch neighbor i of node u with its latency and edge id (Neighbors),
//   - find the same edge's index in the neighbor's row (Entry.Peer), and
//   - resolve (node, edge id) to the node's row index (EdgeIndex)
//
// each read one entry or one record.
type Graph struct {
	rowStart []int32 // len n+1; row u is ents[rowStart[u]:rowStart[u+1]]
	ents     []Entry // len 2m
	edges    []edgeRec
	maxLat   int
}

// N reports the number of nodes.
func (g *Graph) N() int { return len(g.rowStart) - 1 }

// M reports the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edge returns edge id, its endpoints in the order they were added.
func (g *Graph) Edge(id int) Edge {
	r := g.edges[id]
	e := g.ents[r.posU]
	return Edge{U: int(r.endU), V: int(e.To), Latency: int(e.Lat)}
}

// Edges returns a new slice of every edge, in edge ID order. A loop that
// runs often reads Edge(id) instead, which allocates nothing.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	for id := range out {
		out[id] = g.Edge(id)
	}
	return out
}

// Neighbors returns u's half-edges in the order its edges were added. The
// caller must not modify the returned slice; its capacity ends with the row,
// so an append cannot write into the next one.
func (g *Graph) Neighbors(u NodeID) []Entry {
	lo, hi := g.rowStart[u], g.rowStart[u+1]
	return g.ents[lo:hi:hi]
}

// EdgeIndex resolves edge id to its index in u's row — the value idx with
// Neighbors(u)[idx].ID == id — or -1 when the edge is not incident to u
// (misrouted traffic, synthetic membership edge IDs). It reads the edge's
// one record and u's row bounds: a position inside u's row can only be u's
// own half of the edge, since rows are disjoint and there are no self loops.
func (g *Graph) EdgeIndex(u NodeID, id int) int {
	if uint(id) >= uint(len(g.edges)) {
		return -1
	}
	r := &g.edges[id]
	p := r.posV
	if r.endU == int32(u) {
		p = r.posU
	}
	lo := g.rowStart[u]
	if p < lo || p >= g.rowStart[u+1] {
		return -1
	}
	return int(p - lo)
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.EdgeLatency(u, v)
	return ok
}

// EdgeLatency returns the latency of edge {u,v} and whether it exists.
func (g *Graph) EdgeLatency(u, v NodeID) (int, bool) {
	for _, e := range g.Neighbors(u) {
		if int(e.To) == v {
			return int(e.Lat), true
		}
	}
	return 0, false
}

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u NodeID) int { return int(g.rowStart[u+1] - g.rowStart[u]) }

// MaxDegree returns Δ, the maximum node degree.
func (g *Graph) MaxDegree() int {
	d := 0
	for u := 0; u < g.N(); u++ {
		d = max(d, g.Degree(u))
	}
	return d
}

// Volume returns Vol(U) = number of edge endpoints at nodes of U, i.e. the
// sum of degrees over U (paper, Section 2).
func (g *Graph) Volume(set []NodeID) int {
	v := 0
	for _, u := range set {
		v += g.Degree(u)
	}
	return v
}

// MaxLatency returns ℓ_max, the largest edge latency (0 for edgeless graphs).
func (g *Graph) MaxLatency() int { return g.maxLat }

// Latencies returns the sorted distinct edge latencies.
func (g *Graph) Latencies() []int {
	seen := make(map[int32]bool, 8)
	for _, r := range g.edges {
		seen[g.ents[r.posU].Lat] = true
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, int(l))
	}
	sort.Ints(out)
	return out
}

// Subgraph returns the subgraph of g containing only edges with
// latency <= maxLatency (the graph G_ℓ of Section 5.1). Node set unchanged.
func (g *Graph) Subgraph(maxLatency int) *Graph {
	b := New(g.N())
	for id := range g.edges {
		if e := g.Edge(id); e.Latency <= maxLatency {
			b.add(e.U, e.V, e.Latency)
		}
	}
	return b.Build()
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d ℓmax=%d}", g.N(), g.M(), g.MaxDegree(), g.MaxLatency())
}

// Builder collects the edges of a graph under construction; Build freezes
// them into a Graph. The zero value is not usable; construct with New.
type Builder struct {
	n     int
	edges []pending
	deg   []int32
	// seen is an open-addressing set of the added edges' endpoint pairs,
	// for HasEdge and the checked AddEdge. It is nil until the first such
	// query, so a generator that only adds edges it knows are fresh never
	// pays for it.
	seen []uint64
}

// pending is an edge added to a Builder.
type pending struct{ u, v, lat int32 }

// New returns a builder for a graph on n nodes.
func New(n int) *Builder { return newBuilder(n, 0) }

// newBuilder is New with room for m edges, for generators that know their
// edge count, so the edge list is allocated once.
func newBuilder(n, m int) *Builder {
	if n < 0 || n >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: node count %d out of range", n))
	}
	return &Builder{n: n, edges: make([]pending, 0, m), deg: make([]int32, n)}
}

// Degree returns the number of edges added at u so far.
func (b *Builder) Degree(u NodeID) int { return int(b.deg[u]) }

// AddEdge adds an undirected edge {u,v} with the given latency and returns
// its edge ID. It returns an error for self loops, duplicate edges,
// out-of-range endpoints, and latencies < 1 or too large for a Graph.
func (b *Builder) AddEdge(u, v NodeID, latency int) (int, error) {
	switch {
	case u < 0 || u >= b.n || v < 0 || v >= b.n:
		return 0, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	case u == v:
		return 0, fmt.Errorf("graph: self loop at %d", u)
	case latency < 1:
		return 0, fmt.Errorf("graph: latency %d < 1 on edge (%d,%d)", latency, u, v)
	case latency > math.MaxInt32:
		return 0, fmt.Errorf("graph: latency %d > %d on edge (%d,%d)", latency, math.MaxInt32, u, v)
	case b.HasEdge(u, v):
		return 0, fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	return b.add(u, v, latency), nil
}

// MustAddEdge is AddEdge for generators building well-formed graphs; it
// panics on error (a construction bug, not a runtime condition).
func (b *Builder) MustAddEdge(u, v NodeID, latency int) int {
	id, err := b.AddEdge(u, v, latency)
	if err != nil {
		panic(err)
	}
	return id
}

// add is AddEdge in O(1), without the endpoint and duplicate checks: for
// generators that add each pair of distinct in-range nodes at most once. A
// latency that is no valid edge latency is a construction bug; it panics.
func (b *Builder) add(u, v NodeID, latency int) int {
	if latency < 1 || latency > math.MaxInt32 {
		panic(fmt.Sprintf("graph: latency %d out of [1,%d] on edge (%d,%d)", latency, math.MaxInt32, u, v))
	}
	id := len(b.edges)
	b.edges = append(b.edges, pending{int32(u), int32(v), int32(latency)})
	b.deg[u]++
	b.deg[v]++
	if 2*len(b.edges) >= len(b.seen) {
		if b.seen != nil {
			b.rehash(2 * len(b.edges))
		}
	} else {
		key := pairKey(u, v)
		b.seen[b.find(key)] = key
	}
	return id
}

// HasEdge reports whether {u,v} has been added.
func (b *Builder) HasEdge(u, v NodeID) bool {
	if b.seen == nil {
		b.rehash(cap(b.edges))
	}
	key := pairKey(u, v)
	return b.seen[b.find(key)] == key
}

// pairKey is {u,v}'s key in Builder.seen; the +1 keeps it off 0, the empty
// slot.
func pairKey(u, v NodeID) uint64 {
	return uint64(min(u, v))<<32 | uint64(max(u, v)) + 1
}

// find returns key's slot in Builder.seen by linear probing: the slot that
// holds it, or the empty slot where it belongs.
func (b *Builder) find(key uint64) int {
	mask := len(b.seen) - 1
	i := int((key*0x9e3779b97f4a7c15)>>32) & mask
	for b.seen[i] != 0 && b.seen[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// rehash sizes Builder.seen for room edges, at least as many as have been
// added, at a load below a half, and inserts every added edge.
func (b *Builder) rehash(room int) {
	b.seen = make([]uint64, 1<<bits.Len(uint(2*room)))
	for _, e := range b.edges {
		key := pairKey(int(e.u), int(e.v))
		b.seen[b.find(key)] = key
	}
}

// stitch connects the edges added so far: for the smallest node v of every
// component but node 0's, in increasing order, it adds the edge
// {from(v), v}. The components come from one union-find pass.
func (b *Builder) stitch(latency int, from func(v NodeID) NodeID) {
	parent := make([]int32, b.n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range b.edges {
		// The smaller root wins, so every root is its component's smallest
		// node.
		if ru, rv := find(e.u), find(e.v); ru < rv {
			parent[rv] = ru
		} else if rv < ru {
			parent[ru] = rv
		}
	}
	for v := 1; v < b.n; v++ {
		if find(int32(v)) == int32(v) {
			b.add(from(v), v, latency)
		}
	}
}

// Build freezes the added edges into a Graph in O(n + m): it counts each
// node's row, cuts the rows from one array, and fills them in edge ID order,
// so every node's half-edges keep the order its edges were added in. The
// builder stays usable.
func (b *Builder) Build() *Graph {
	if 2*len(b.edges) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d edges exceed the packed layout", len(b.edges)))
	}
	g := &Graph{
		rowStart: make([]int32, b.n+1),
		ents:     make([]Entry, 2*len(b.edges)),
		edges:    make([]edgeRec, len(b.edges)),
	}
	for u, d := range b.deg {
		g.rowStart[u+1] = g.rowStart[u] + d
	}
	fill := append([]int32(nil), g.rowStart[:b.n]...) // each row's next free position
	for id, e := range b.edges {
		pu, pv := fill[e.u], fill[e.v]
		fill[e.u]++
		fill[e.v]++
		g.ents[pu] = Entry{To: e.v, Lat: e.lat, ID: int32(id), Peer: pv - g.rowStart[e.v]}
		g.ents[pv] = Entry{To: e.u, Lat: e.lat, ID: int32(id), Peer: pu - g.rowStart[e.u]}
		g.edges[id] = edgeRec{endU: e.u, posU: pu, posV: pv}
		g.maxLat = max(g.maxLat, int(e.lat))
	}
	return g
}
