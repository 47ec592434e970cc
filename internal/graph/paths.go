package graph

import (
	"container/heap"
	"math"
)

// Inf marks an unreachable distance.
const Inf = math.MaxInt64 / 4

// HopDistances returns BFS hop distances from src (Inf if unreachable).
func (g *Graph) HopDistances(src NodeID) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	queue := make([]NodeID, 0, g.N())
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, e := range g.Neighbors(u) {
			if dist[e.To] == Inf {
				dist[e.To] = dist[u] + 1
				queue = append(queue, int(e.To))
			}
		}
	}
	return dist
}

// distItem is a priority-queue entry for Dijkstra.
type distItem struct {
	node NodeID
	dist int
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Distances returns Dijkstra latency-weighted distances from src
// (Inf if unreachable).
func (g *Graph) Distances(src NodeID) []int {
	dist := make([]int, g.N())
	var h distHeap
	g.distancesInto(src, dist, &h)
	return dist
}

// distancesInto runs Dijkstra from src into the caller's dist slice (length
// n) and scratch heap, so all-pairs sweeps reuse one allocation per buffer.
// The heap is reset; dist is fully overwritten.
func (g *Graph) distancesInto(src NodeID, dist []int, h *distHeap) {
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	*h = append((*h)[:0], distItem{node: src, dist: 0})
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range g.Neighbors(it.node) {
			nd := it.dist + int(e.Lat)
			if nd < dist[e.To] {
				dist[e.To] = nd
				heap.Push(h, distItem{node: int(e.To), dist: nd})
			}
		}
	}
}

// DistancesWithin returns latency-weighted distances from src, exploring only
// nodes at distance <= limit; others are Inf. Used for k-hop/ball gathering.
func (g *Graph) DistancesWithin(src NodeID, limit int) map[NodeID]int {
	dist := map[NodeID]int{src: 0}
	h := &distHeap{{node: src, dist: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if d, ok := dist[it.node]; ok && it.dist > d {
			continue
		}
		for _, e := range g.Neighbors(it.node) {
			to, nd := int(e.To), it.dist+int(e.Lat)
			if nd > limit {
				continue
			}
			if d, ok := dist[to]; !ok || nd < d {
				dist[to] = nd
				heap.Push(h, distItem{node: to, dist: nd})
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	dist := g.HopDistances(0)
	for _, d := range dist {
		if d == Inf {
			return false
		}
	}
	return true
}

// WeightedDiameter returns D, the maximum latency-weighted distance between
// any pair of nodes (Inf if disconnected). O(n · m log n). The dist and heap
// buffers are shared across the n Dijkstra sweeps.
func (g *Graph) WeightedDiameter() int {
	d := 0
	dist := make([]int, g.N())
	var h distHeap
	for u := 0; u < g.N(); u++ {
		g.distancesInto(u, dist, &h)
		for _, e := range dist {
			if e > d {
				d = e
			}
		}
	}
	return d
}

// HopDiameter returns the maximum BFS hop distance between any pair of nodes.
func (g *Graph) HopDiameter() int {
	d := 0
	for u := 0; u < g.N(); u++ {
		for _, h := range g.HopDistances(u) {
			if h > d {
				d = h
			}
		}
	}
	return d
}

// WeightedDiameterApprox returns a 2-approximation of the weighted diameter
// using a constant number of Dijkstra sweeps (double sweep from node 0),
// cheap enough for large graphs. The true diameter is in
// [result, 2*result].
func (g *Graph) WeightedDiameterApprox() int {
	if g.N() == 0 {
		return 0
	}
	d0 := g.Distances(0)
	far, fd := 0, 0
	for u, d := range d0 {
		if d != Inf && d > fd {
			far, fd = u, d
		}
	}
	best := fd
	for _, d := range g.Distances(far) {
		if d != Inf && d > best {
			best = d
		}
	}
	return best
}
