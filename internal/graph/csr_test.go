package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// csrTestGraphs spans the generator families at small sizes where brute
// per-level comparison against the adjacency-list Graph API is cheap.
func csrTestGraphs() map[string]*Graph {
	return map[string]*Graph{
		"dumbbell":    Dumbbell(5, 4),
		"ringcliques": RandomLatencies(RingOfCliques(4, 5, 3), 1, 5, 3),
		"gnp":         RandomLatencies(GNP(30, 0.15, 1, true, 9), 1, 6, 9),
		"grid":        RandomLatencies(Grid(5, 6, 1), 1, 4, 2),
		"torus":       RandomLatencies(Torus(5, 5, 1), 1, 3, 4),
		"sparse":      GNP(20, 0.05, 1, false, 11), // possibly disconnected even in G
	}
}

func TestCSRBasics(t *testing.T) {
	for name, g := range csrTestGraphs() {
		c := BuildCSR(g)
		if c.N() != g.N() {
			t.Errorf("%s: N = %d, want %d", name, c.N(), g.N())
		}
		if c.VolAll() != 2*g.M() {
			t.Errorf("%s: VolAll = %d, want %d", name, c.VolAll(), 2*g.M())
		}
		for u := 0; u < g.N(); u++ {
			if c.Degree(u) != g.Degree(u) {
				t.Errorf("%s: Degree(%d) = %d, want %d", name, u, c.Degree(u), g.Degree(u))
			}
		}
		if !reflect.DeepEqual(c.Levels(), g.Latencies()) {
			t.Errorf("%s: Levels = %v, want %v", name, c.Levels(), g.Latencies())
		}
	}
}

// TestCSRPrefixMatchesFilteredNeighbors checks the core prefix invariant: at
// every level ℓ, Prefix(u, ends) holds exactly the neighbors of u reachable
// over edges with latency <= ℓ, and LevelDegree counts them.
func TestCSRPrefixMatchesFilteredNeighbors(t *testing.T) {
	for name, g := range csrTestGraphs() {
		c := BuildCSR(g)
		ends := c.NewEnds()
		for _, ell := range c.Levels() {
			c.AdvanceEnds(ends, ell)
			for u := 0; u < g.N(); u++ {
				var want []int32
				for _, e := range g.Neighbors(u) {
					if int(e.Lat) <= ell {
						want = append(want, e.To)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				got := append([]int32(nil), c.Prefix(u, ends)...)
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s ℓ=%d: Prefix(%d) = %v, want %v", name, ell, u, got, want)
				}
				if c.LevelDegree(u, ends) != len(want) {
					t.Fatalf("%s ℓ=%d: LevelDegree(%d) = %d, want %d", name, ell, u, c.LevelDegree(u, ends), len(want))
				}
			}
		}
	}
}

// TestCSRRowsLatencySorted checks the layout invariant the ladder engine
// relies on: each row is nondecreasing in latency, with ties broken by
// neighbor id, so every G_ℓ is a contiguous prefix.
func TestCSRRowsLatencySorted(t *testing.T) {
	for name, g := range csrTestGraphs() {
		c := BuildCSR(g)
		full := c.NewEnds()
		lats := c.Levels()
		if len(lats) > 0 {
			c.AdvanceEnds(full, lats[len(lats)-1])
		}
		for u := 0; u < c.N(); u++ {
			row := c.Prefix(u, full)
			if len(row) != c.Degree(u) {
				t.Fatalf("%s: row %d has %d entries at max level, want degree %d", name, u, len(row), c.Degree(u))
			}
		}
	}
}

func TestCSRAdvanceEndsMonotone(t *testing.T) {
	for name, g := range csrTestGraphs() {
		c := BuildCSR(g)
		ends := c.NewEnds()
		prev := append([]int32(nil), ends...)
		for _, ell := range c.Levels() {
			c.AdvanceEnds(ends, ell)
			for u := range ends {
				if ends[u] < prev[u] {
					t.Fatalf("%s ℓ=%d: cursor of %d moved backward", name, ell, u)
				}
			}
			copy(prev, ends)
		}
		c.ResetEnds(ends)
		if !reflect.DeepEqual(ends, c.NewEnds()) {
			t.Errorf("%s: ResetEnds != NewEnds", name)
		}
	}
}

// TestCSRComponentsMatchSubgraph compares the prefix-view components to the
// Subgraph-based ones as set partitions (the BFS visit order inside one
// component legitimately differs: CSR rows are latency-sorted).
func TestCSRComponentsMatchSubgraph(t *testing.T) {
	normalize := func(comps [][]NodeID) [][]NodeID {
		out := make([][]NodeID, len(comps))
		for i, cmp := range comps {
			out[i] = append([]NodeID(nil), cmp...)
			sort.Slice(out[i], func(a, b int) bool { return out[i][a] < out[i][b] })
		}
		sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
		return out
	}
	for name, g := range csrTestGraphs() {
		c := BuildCSR(g)
		ends := c.NewEnds()
		for _, ell := range c.Levels() {
			c.AdvanceEnds(ends, ell)
			got := normalize(c.ComponentsAt(ends))
			want := normalize(g.Subgraph(ell).Components())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s ℓ=%d: components %v, want %v", name, ell, got, want)
			}
		}
	}
}

// TestCSRConnectivityLevels cross-checks LadderComponents' union-find walk
// against the per-level BFS answer and asserts monotonicity (false* then
// true*).
func TestCSRConnectivityLevels(t *testing.T) {
	for name, g := range csrTestGraphs() {
		c := BuildCSR(g)
		conn, _ := c.LadderComponents(false)
		if len(conn) != len(c.Levels()) {
			t.Fatalf("%s: %d connectivity entries for %d levels", name, len(conn), len(c.Levels()))
		}
		ends := c.NewEnds()
		wasConnected := false
		for k, ell := range c.Levels() {
			c.AdvanceEnds(ends, ell)
			want := len(c.ComponentsAt(ends)) == 1
			if conn[k] != want {
				t.Errorf("%s ℓ=%d: connected = %v, want %v", name, ell, conn[k], want)
			}
			if wasConnected && !conn[k] {
				t.Errorf("%s ℓ=%d: connectivity regressed (not monotone)", name, ell)
			}
			wasConnected = conn[k]
		}
	}
}

// TestCSRSortedEdges checks the latency-sorted global edge list is a
// permutation of g.Edges() with nondecreasing latency.
func TestCSRSortedEdges(t *testing.T) {
	for name, g := range csrTestGraphs() {
		c := BuildCSR(g)
		eu, ev, el := c.SortedEdges()
		if len(eu) != g.M() || len(ev) != g.M() || len(el) != g.M() {
			t.Fatalf("%s: sorted edge list length %d/%d/%d, want %d", name, len(eu), len(ev), len(el), g.M())
		}
		type edge struct{ u, v, lat int32 }
		canon := func(u, v, lat int32) edge {
			if u > v {
				u, v = v, u
			}
			return edge{u, v, lat}
		}
		want := map[edge]int{}
		for _, e := range g.Edges() {
			want[canon(int32(e.U), int32(e.V), int32(e.Latency))]++
		}
		for i := range eu {
			if i > 0 && el[i] < el[i-1] {
				t.Fatalf("%s: edge latencies not sorted at %d", name, i)
			}
			k := canon(eu[i], ev[i], el[i])
			if want[k] == 0 {
				t.Fatalf("%s: unexpected edge %v", name, k)
			}
			want[k]--
		}
	}
}

// TestCSRLadderComponentWitnesses checks the union-find witness of every
// disconnected level against brute force over ComponentsAt: the smallest
// component, ties broken toward the smallest member, in sorted node order.
func TestCSRLadderComponentWitnesses(t *testing.T) {
	for name, g := range csrTestGraphs() {
		c := BuildCSR(g)
		conn, smallest := c.LadderComponents(true)
		ends := c.NewEnds()
		for k, ell := range c.Levels() {
			c.AdvanceEnds(ends, ell)
			comps := c.ComponentsAt(ends)
			if conn[k] != (len(comps) == 1) {
				t.Fatalf("%s ℓ=%d: connected = %v but %d components", name, ell, conn[k], len(comps))
			}
			if conn[k] {
				if smallest[k] != nil {
					t.Errorf("%s ℓ=%d: witness on a connected level", name, ell)
				}
				continue
			}
			want := comps[0]
			for _, cmp := range comps[1:] {
				if len(cmp) < len(want) {
					want = cmp
				}
			}
			want = append([]NodeID(nil), want...)
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if !reflect.DeepEqual(smallest[k], want) {
				t.Errorf("%s ℓ=%d: witness %v, want %v", name, ell, smallest[k], want)
			}
		}
	}
}

// TestCSRDistancesMatchGraph pins the flat-heap Dijkstra to the
// adjacency-list implementation: shortest-path distances are unique, so the
// two must agree entry-for-entry (modulo the unreachable sentinels).
func TestCSRDistancesMatchGraph(t *testing.T) {
	for name, g := range csrTestGraphs() {
		c := BuildCSR(g)
		dist := make([]int32, g.N())
		var heapBuf []int64
		for _, src := range []NodeID{0, g.N() / 2, g.N() - 1} {
			heapBuf = c.DistancesFrom(src, dist, heapBuf)
			want := g.Distances(src)
			for u := 0; u < g.N(); u++ {
				if want[u] == Inf {
					if dist[u] != UnreachableDist {
						t.Fatalf("%s src=%d: node %d reachable in CSR but not Graph", name, src, u)
					}
					continue
				}
				if int(dist[u]) != want[u] {
					t.Fatalf("%s src=%d: dist[%d] = %d, want %d", name, src, u, dist[u], want[u])
				}
			}
		}
	}
}

// TestQuickCSRLevelDegreeSums checks Σ_u deg_ℓ(u) = 2·|E_ℓ| on random
// graphs at every level.
func TestQuickCSRLevelDegreeSums(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 5 + r.Intn(20)
		g := RandomLatencies(GNP(n, 0.3, 1, false, seed), 1, 5, seed)
		c := BuildCSR(g)
		ends := c.NewEnds()
		for _, ell := range c.Levels() {
			c.AdvanceEnds(ends, ell)
			sum := 0
			for u := 0; u < n; u++ {
				sum += c.LevelDegree(u, ends)
			}
			edges := 0
			for _, e := range g.Edges() {
				if e.Latency <= ell {
					edges++
				}
			}
			if sum != 2*edges {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
