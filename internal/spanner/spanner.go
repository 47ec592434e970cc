// Package spanner implements the Baswana–Sen randomized (2k−1)-spanner
// construction used by the paper's EID algorithm (Section 5.2, Appendix D),
// including the edge *orientation*: every spanner edge is directed out of
// the vertex whose rule added it, which bounds each node's out-degree by
// O(n^{1/k} log n) whp (Lemma 13) — O(log n) for k = log n.
//
// Cluster sampling uses a shared pseudo-random function of
// (seed, center, iteration), so every node of a distributed execution makes
// identical sampling decisions from the public seed; this is what lets the
// gossip-model EID compute the spanner locally after gathering its
// k-hop neighborhood (Theorem 14). Edge weights are the latencies with ties
// broken canonically by endpoint IDs, making the construction independent of
// edge enumeration order — a ball-restricted run at any node agrees with the
// centralized run.
package spanner

import (
	"fmt"
	"math"
	"sort"

	"gossip/internal/graph"
	"gossip/internal/rng"
)

// OrientedEdge is a spanner edge directed out of the vertex that added it.
type OrientedEdge struct {
	From, To graph.NodeID
	Latency  int
}

// Spanner is the result of a construction over a graph on n nodes.
type Spanner struct {
	K     int
	N     int
	Out   [][]OrientedEdge // Out[v] lists edges oriented out of v
	edges map[[2]graph.NodeID]bool
}

// Size returns the number of (undirected) spanner edges.
func (s *Spanner) Size() int { return len(s.edges) }

// MaxOutDegree returns the largest out-degree over all nodes.
func (s *Spanner) MaxOutDegree() int {
	d := 0
	for _, out := range s.Out {
		if len(out) > d {
			d = len(out)
		}
	}
	return d
}

// Has reports whether the undirected edge {u,v} is in the spanner.
func (s *Spanner) Has(u, v graph.NodeID) bool {
	return s.edges[edgeKey(u, v)]
}

// UndirectedGraph returns the spanner as a latency-weighted graph on the
// same node set, with edges in canonical order.
func (s *Spanner) UndirectedGraph() *graph.Graph {
	b := graph.New(s.N)
	keys := make([][2]graph.NodeID, 0, len(s.edges))
	for key := range s.edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		// Latency recovered from either orientation entry.
		lat := 0
		for _, oe := range s.Out[key[0]] {
			if oe.To == key[1] {
				lat = oe.Latency
			}
		}
		if lat == 0 {
			for _, oe := range s.Out[key[1]] {
				if oe.To == key[0] {
					lat = oe.Latency
				}
			}
		}
		b.MustAddEdge(key[0], key[1], lat)
	}
	return b.Build()
}

func edgeKey(u, v graph.NodeID) [2]graph.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.NodeID{u, v}
}

// weightLess compares edges by (latency, canonical endpoints); the paper
// assumes distinct weights and suggests breaking ties with node IDs.
func weightLess(aLat int, aU, aV graph.NodeID, bLat int, bU, bV graph.NodeID) bool {
	if aLat != bLat {
		return aLat < bLat
	}
	ak, bk := edgeKey(aU, aV), edgeKey(bU, bV)
	if ak[0] != bk[0] {
		return ak[0] < bk[0]
	}
	return ak[1] < bk[1]
}

// Detail records the clustering trace of a construction for analysis and
// validation: Centers[i][v] is v's cluster center after iteration i
// (Centers[0][v] = v; -1 marks vertices that have left V′).
type Detail struct {
	Centers [][]graph.NodeID
}

// DistinctCenters returns the number of live clusters after iteration i.
func (d *Detail) DistinctCenters(i int) int {
	seen := make(map[graph.NodeID]bool)
	for _, c := range d.Centers[i] {
		if c >= 0 {
			seen[c] = true
		}
	}
	return len(seen)
}

// SampleCoin reports the shared sampling decision for a cluster center at
// an iteration — the public coin every node evaluates identically.
func SampleCoin(nHat, k int, seed uint64, center graph.NodeID, iter int) bool {
	prob := math.Pow(float64(nHat), -1.0/float64(k))
	return rng.Coin(prob, seed, uint64(center)+1, uint64(iter))
}

// Build runs the Baswana–Sen construction with parameter k on g, using nHat
// (an upper bound on n, see Lemma 13) for the sampling probability
// nHat^{-1/k} and the shared seed for cluster sampling. The result is a
// (2k−1)-spanner of g whp.
func Build(g *graph.Graph, k, nHat int, seed uint64) (*Spanner, error) {
	sp, _, err := BuildDetailed(g, k, nHat, seed)
	return sp, err
}

// BuildDetailed is Build returning the clustering trace too.
func BuildDetailed(g *graph.Graph, k, nHat int, seed uint64) (*Spanner, *Detail, error) {
	n := g.N()
	if k < 1 {
		return nil, nil, fmt.Errorf("spanner: k must be >= 1, got %d", k)
	}
	if nHat < n {
		return nil, nil, fmt.Errorf("spanner: nHat=%d < n=%d", nHat, n)
	}
	sp := &Spanner{
		K:     k,
		N:     n,
		Out:   make([][]OrientedEdge, n),
		edges: make(map[[2]graph.NodeID]bool),
	}
	detail := &Detail{}
	if k == 1 {
		// A 1-spanner is the graph itself; orient out of the smaller ID.
		for id := 0; id < g.M(); id++ {
			e := g.Edge(id)
			sp.addEdge(e.U, e.V, e.Latency)
		}
		return sp, detail, nil
	}

	prob := math.Pow(float64(nHat), -1.0/float64(k))
	// center[v] is v's cluster center in the current clustering R_{i-1};
	// -1 marks vertices that have left V' (unclustered forever).
	center := make([]graph.NodeID, n)
	for v := range center {
		center[v] = v
	}
	alive := make([]bool, g.M())
	for i := range alive {
		alive[i] = true
	}
	detail.Centers = append(detail.Centers, append([]graph.NodeID(nil), center...))

	for iter := 1; iter <= k-1; iter++ {
		// Sample clusters of R_{i-1} with shared coins keyed by
		// (seed, center, iter): a cluster survives all iterations 1..i iff
		// every coin so far came up heads — equivalently we flip one coin
		// per iteration per surviving center.
		sampled := func(c graph.NodeID) bool {
			return rng.Coin(prob, seed, uint64(c)+1, uint64(iter))
		}
		newCenter := make([]graph.NodeID, n)
		copy(newCenter, center)
		var kills []int // edge IDs to discard at the end of the iteration

		for v := 0; v < n; v++ {
			if center[v] < 0 {
				continue // v left V' in an earlier iteration
			}
			if sampled(center[v]) {
				continue // v's cluster survived; v stays put
			}
			// v's cluster was not sampled: inspect adjacent clusters over
			// alive edges to clustered neighbors.
			type best struct {
				lat    int
				u      graph.NodeID
				edgeID int
			}
			bests := make(map[graph.NodeID]best) // cluster center -> least edge
			for _, he := range g.Neighbors(v) {
				if !alive[he.ID] || center[he.To] < 0 {
					continue
				}
				c := center[he.To]
				b, ok := bests[c]
				if !ok || weightLess(int(he.Lat), v, int(he.To), b.lat, v, b.u) {
					bests[c] = best{lat: int(he.Lat), u: int(he.To), edgeID: int(he.ID)}
				}
			}
			// Least edge among adjacent *sampled* clusters, if any.
			var (
				starC   graph.NodeID = -1
				starB   best
				hasStar bool
			)
			for c, b := range bests {
				if !sampled(c) {
					continue
				}
				if !hasStar || weightLess(b.lat, v, b.u, starB.lat, v, starB.u) {
					starC, starB, hasStar = c, b, true
				}
			}
			if !hasStar {
				// Rule 1: no sampled neighbor cluster. Add the least edge to
				// every adjacent cluster, discard all other edges to those
				// clusters, and leave V'.
				for _, b := range bests {
					sp.addEdge(v, b.u, b.lat)
				}
				for _, he := range g.Neighbors(v) {
					if alive[he.ID] && center[he.To] >= 0 {
						kills = append(kills, int(he.ID))
					}
				}
				newCenter[v] = -1
				continue
			}
			// Rule 2: join the sampled cluster with the overall least edge
			// e_v; also add the least edge to every adjacent cluster whose
			// least edge is lighter than e_v, discarding edges to those
			// clusters and to the joined cluster.
			sp.addEdge(v, starB.u, starB.lat)
			newCenter[v] = starC
			discard := map[graph.NodeID]bool{starC: true}
			for c, b := range bests {
				if c == starC {
					continue
				}
				if weightLess(b.lat, v, b.u, starB.lat, v, starB.u) {
					sp.addEdge(v, b.u, b.lat)
					discard[c] = true
				}
			}
			for _, he := range g.Neighbors(v) {
				if alive[he.ID] && center[he.To] >= 0 && discard[center[he.To]] {
					kills = append(kills, int(he.ID))
				}
			}
		}
		for _, id := range kills {
			alive[id] = false
		}
		center = newCenter
		detail.Centers = append(detail.Centers, append([]graph.NodeID(nil), center...))
		// Remove intra-cluster edges of the new clustering.
		for id := range alive {
			if e := g.Edge(id); alive[id] && center[e.U] >= 0 && center[e.U] == center[e.V] {
				alive[id] = false
			}
		}
	}

	// Phase 2 (iteration k): every vertex adds the least alive edge to each
	// adjacent cluster of R_{k-1}.
	for v := 0; v < n; v++ {
		type best struct {
			lat int
			u   graph.NodeID
		}
		bests := make(map[graph.NodeID]best)
		for _, he := range g.Neighbors(v) {
			if !alive[he.ID] || center[he.To] < 0 || center[he.To] == centerOf(center, v) {
				continue
			}
			c := center[he.To]
			b, ok := bests[c]
			if !ok || weightLess(int(he.Lat), v, int(he.To), b.lat, v, b.u) {
				bests[c] = best{lat: int(he.Lat), u: int(he.To)}
			}
		}
		for _, b := range bests {
			sp.addEdge(v, b.u, b.lat)
		}
	}
	sp.canonicalize()
	return sp, detail, nil
}

// canonicalize sorts each node's out-edges so the construction is fully
// deterministic: the edge *set* never depends on map iteration order, but
// downstream protocols (RR Broadcast) consume Out slices in order.
func (s *Spanner) canonicalize() {
	for v := range s.Out {
		sort.Slice(s.Out[v], func(i, j int) bool {
			return s.Out[v][i].To < s.Out[v][j].To
		})
	}
}

// centerOf returns v's center or -2 when v is unclustered, so it never
// compares equal to a real center.
func centerOf(center []graph.NodeID, v graph.NodeID) graph.NodeID {
	if center[v] < 0 {
		return -2
	}
	return center[v]
}

// addEdge records an edge oriented out of from; if the undirected edge is
// already present (added earlier, possibly by the other endpoint), the call
// is a no-op so out-degrees are not double counted.
func (s *Spanner) addEdge(from, to graph.NodeID, lat int) {
	key := edgeKey(from, to)
	if s.edges[key] {
		return
	}
	s.edges[key] = true
	s.Out[from] = append(s.Out[from], OrientedEdge{From: from, To: to, Latency: lat})
}

// Stretch returns the worst multiplicative stretch of the spanner over all
// connected pairs: max_{u,v} dist_S(u,v) / dist_G(u,v). Quadratic in n — use
// on moderate graphs (tests and experiments).
func Stretch(g *graph.Graph, sp *Spanner) float64 {
	sg := sp.UndirectedGraph()
	worst := 1.0
	for u := 0; u < g.N(); u++ {
		dg := g.Distances(u)
		ds := sg.Distances(u)
		for v := 0; v < g.N(); v++ {
			if u == v || dg[v] == graph.Inf {
				continue
			}
			if ds[v] == graph.Inf {
				return math.Inf(1)
			}
			if r := float64(ds[v]) / float64(dg[v]); r > worst {
				worst = r
			}
		}
	}
	return worst
}
