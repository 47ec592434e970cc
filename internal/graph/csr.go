package graph

import (
	"math"
	"sort"
)

// CSR is an immutable compressed-sparse-row view of a Graph, built once and
// shared by analyses that repeatedly scan "the edges of G_ℓ" for many
// thresholds ℓ: neighbor lists are stored contiguously and sorted by
// latency, so the incident edges of u with latency <= ℓ are the slice prefix
// to[rowStart[u]:ends[u]] for a cursor array ends — no per-edge filtering.
// Cursors only move forward as ℓ grows, so a full ladder walk over all
// distinct latencies advances each cursor O(deg) times total.
//
// The view also caches the quantities every conductance sweep needs: the
// total volume 2m, the sorted distinct latencies, and a globally
// latency-sorted edge list for incremental connectivity walks. A node's
// full-graph degree (volumes in Definition 1 are taken in G, not G_ℓ) is its
// row length.
type CSR struct {
	n        int
	volAll   int     // 2m
	rowStart []int32 // len n+1; row u is to[rowStart[u]:rowStart[u+1]]
	to       []int32 // len 2m; neighbor ids, latency-sorted within each row
	lat      []int32 // len 2m; latencies aligned with to, nondecreasing per row
	lats     []int   // sorted distinct latencies ("levels" of the ladder)

	// Edges sorted by latency (ties by original edge id), for incremental
	// union-find style walks up the ladder.
	edgeU, edgeV, edgeLat []int32
}

// BuildCSR constructs the latency-sorted CSR view of g.
func BuildCSR(g *Graph) *CSR {
	n := g.N()
	// The rows have g's bounds, so they share its immutable row index.
	c := &CSR{n: n, volAll: 2 * g.M(), lats: g.Latencies(), rowStart: g.rowStart}
	m2 := int(c.rowStart[n])
	c.to = make([]int32, m2)
	c.lat = make([]int32, m2)
	for u := 0; u < n; u++ {
		i := c.rowStart[u]
		for _, e := range g.Neighbors(u) {
			c.to[i] = e.To
			c.lat[i] = e.Lat
			i++
		}
		// Rows have no parallel edges, so (lat, to) keys are distinct and any
		// correct sort yields the same layout; insertion sort beats the
		// interface sorter on the short rows that dominate, with a fallback
		// for heavy-tailed degrees.
		row := rowSlice{to: c.to[c.rowStart[u]:i], lat: c.lat[c.rowStart[u]:i]}
		if row.Len() <= 32 {
			insertionSortRow(row)
		} else {
			sort.Sort(row)
		}
	}
	// Counting sort of the edge list by latency class: stable, so ties keep
	// original edge-id order, matching a stable comparison sort.
	m := g.M()
	latIdx := make([]int32, m)
	count := make([]int32, len(c.lats)+1)
	for id := range latIdx {
		k := int32(sort.SearchInts(c.lats, g.Edge(id).Latency))
		latIdx[id] = k
		count[k+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	c.edgeU = make([]int32, m)
	c.edgeV = make([]int32, m)
	c.edgeLat = make([]int32, m)
	for id, k := range latIdx {
		e := g.Edge(id)
		p := count[k]
		count[k]++
		c.edgeU[p] = int32(e.U)
		c.edgeV[p] = int32(e.V)
		c.edgeLat[p] = int32(e.Latency)
	}
	return c
}

func insertionSortRow(r rowSlice) {
	for i := 1; i < r.Len(); i++ {
		for j := i; j > 0 && r.Less(j, j-1); j-- {
			r.Swap(j, j-1)
		}
	}
}

// rowSlice sorts one adjacency row by (latency, neighbor id), keeping the
// two parallel arrays aligned. The secondary key makes the layout canonical.
type rowSlice struct{ to, lat []int32 }

func (r rowSlice) Len() int { return len(r.to) }
func (r rowSlice) Less(i, j int) bool {
	if r.lat[i] != r.lat[j] {
		return r.lat[i] < r.lat[j]
	}
	return r.to[i] < r.to[j]
}
func (r rowSlice) Swap(i, j int) {
	r.to[i], r.to[j] = r.to[j], r.to[i]
	r.lat[i], r.lat[j] = r.lat[j], r.lat[i]
}

// N reports the number of nodes.
func (c *CSR) N() int { return c.n }

// VolAll returns Vol(V) = 2m, the denominator bound of every conductance.
func (c *CSR) VolAll() int { return c.volAll }

// Degree returns u's full-graph degree (its volume contribution).
func (c *CSR) Degree(u NodeID) int { return int(c.rowStart[u+1] - c.rowStart[u]) }

// Levels returns the sorted distinct edge latencies. Callers must not
// modify the returned slice.
func (c *CSR) Levels() []int { return c.lats }

// NewEnds returns a fresh cursor array positioned at level "below every
// latency": ends[u] = rowStart[u], i.e. every prefix empty.
func (c *CSR) NewEnds() []int32 {
	return append([]int32(nil), c.rowStart[:c.n]...)
}

// ResetEnds repositions an existing cursor array (len n) back to the empty
// prefix, for reuse across independent level walks.
func (c *CSR) ResetEnds(ends []int32) { copy(ends, c.rowStart[:c.n]) }

// AdvanceEnds moves the cursor array forward to level ℓ: afterwards ends[u]
// is one past the last neighbor of u with latency <= ℓ. Cursors only move
// forward, so walking the ladder ℓ_1 < ℓ_2 < ... costs O(2m) in total.
func (c *CSR) AdvanceEnds(ends []int32, ell int) {
	l := int32(ell)
	for u := 0; u < c.n; u++ {
		e, hi := ends[u], c.rowStart[u+1]
		for e < hi && c.lat[e] <= l {
			e++
		}
		ends[u] = e
	}
}

// Prefix returns u's neighbors in G_ℓ as a slice prefix for the given
// cursor array. Callers must not modify the returned slice.
func (c *CSR) Prefix(u NodeID, ends []int32) []int32 {
	return c.to[c.rowStart[u]:ends[u]]
}

// LevelDegree returns deg_ℓ(u), the number of incident edges with
// latency <= ℓ, for the given cursor array.
func (c *CSR) LevelDegree(u NodeID, ends []int32) int {
	return int(ends[u] - c.rowStart[u])
}

// SortedEdges returns the edge endpoints and latencies sorted by latency
// (ties in original insertion order). Callers must not modify the slices.
func (c *CSR) SortedEdges() (u, v, lat []int32) { return c.edgeU, c.edgeV, c.edgeLat }

// ComponentsAt returns the connected components of G_ℓ (the prefix view
// described by ends) in increasing order of their smallest member, matching
// Graph.Components on Graph.Subgraph(ℓ) as sets.
func (c *CSR) ComponentsAt(ends []int32) [][]NodeID {
	seen := make([]bool, c.n)
	var comps [][]NodeID
	queue := make([]NodeID, 0, c.n)
	for start := 0; start < c.n; start++ {
		if seen[start] {
			continue
		}
		queue = append(queue[:0], start)
		seen[start] = true
		comp := []NodeID{}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			comp = append(comp, u)
			for _, v := range c.Prefix(u, ends) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, int(v))
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// UnreachableDist marks an unreachable node in DistancesFrom (the int32
// analogue of Inf).
const UnreachableDist = math.MaxInt32 / 4

// DistancesFrom computes latency-weighted Dijkstra distances from src into
// dist (len n), reusing heapBuf as the priority queue; the possibly grown
// buffer is returned for the next call. Distances equal Graph.Distances
// entry-for-entry (with UnreachableDist in place of Inf): shortest-path
// values are unique, so the heap layout cannot affect the result. The
// flat (dist<<32 | node) binary heap avoids the container/heap interface
// overhead that dominates the adjacency-list implementation on large graphs.
func (c *CSR) DistancesFrom(src NodeID, dist []int32, heapBuf []int64) []int64 {
	for i := range dist {
		dist[i] = UnreachableDist
	}
	dist[src] = 0
	h := append(heapBuf[:0], int64(src))
	for len(h) > 0 {
		it := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		// Sift down.
		for i := 0; ; {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r] < h[l] {
				l = r
			}
			if h[i] <= h[l] {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
		u := NodeID(it & 0xffffffff)
		d := int32(it >> 32)
		if d > dist[u] {
			continue
		}
		row := c.to[c.rowStart[u]:c.rowStart[u+1]]
		lat := c.lat[c.rowStart[u]:c.rowStart[u+1]]
		for k, to := range row {
			nd := d + lat[k]
			if nd < dist[to] {
				dist[to] = nd
				// Sift up.
				h = append(h, int64(nd)<<32|int64(to))
				for i := len(h) - 1; i > 0; {
					p := (i - 1) / 2
					if h[p] <= h[i] {
						break
					}
					h[i], h[p] = h[p], h[i]
					i = p
				}
			}
		}
	}
	return h
}

// LadderComponents walks the ladder with one union-find pass (path halving)
// over the latency-sorted edge list and reports, for each level in Levels()
// order, whether G_ℓ is connected. With witnesses enabled it additionally
// returns, for every disconnected level, the smallest component as a sorted
// node list (size ties broken toward the component with the smallest member
// — the same choice as scanning ComponentsAt output for the strictly
// smallest entry). Witness extraction is O(n) per disconnected level; the
// union-find walk itself is O(2m α) for the whole ladder.
func (c *CSR) LadderComponents(witnesses bool) (conn []bool, smallest [][]NodeID) {
	conn = make([]bool, len(c.lats))
	if witnesses {
		smallest = make([][]NodeID, len(c.lats))
	}
	if c.n == 0 {
		return conn, smallest
	}
	parent := make([]int32, c.n)
	size := make([]int32, c.n)
	minm := make([]int32, c.n)
	for i := range parent {
		parent[i] = int32(i)
		size[i] = 1
		minm[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	comps := c.n
	e := 0
	for k, ell := range c.lats {
		for e < len(c.edgeLat) && int(c.edgeLat[e]) <= ell {
			ru, rv := find(c.edgeU[e]), find(c.edgeV[e])
			if ru != rv {
				parent[ru] = rv
				size[rv] += size[ru]
				if minm[ru] < minm[rv] {
					minm[rv] = minm[ru]
				}
				comps--
			}
			e++
		}
		conn[k] = comps == 1
		if conn[k] || !witnesses {
			continue
		}
		var best int32 = -1
		for u := int32(0); u < int32(c.n); u++ {
			if parent[u] != u {
				continue
			}
			if best < 0 || size[u] < size[best] || (size[u] == size[best] && minm[u] < minm[best]) {
				best = u
			}
		}
		set := make([]NodeID, 0, size[best])
		for u := int32(0); u < int32(c.n); u++ {
			if find(u) == best {
				set = append(set, NodeID(u))
			}
		}
		smallest[k] = set
	}
	return conn, smallest
}
