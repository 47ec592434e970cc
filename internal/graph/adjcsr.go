package graph

// AdjCSR is the dense topology view both engines run on: a compressed-
// sparse-row snapshot of a Graph in *adjacency order*, one packed 16-byte
// Entry per half-edge (four to a cache line), plus a 12-byte cross-index
// record per edge. The per-message operations
//
//   - fetch neighbor i of node u with its latency and edge id (Row),
//   - find the same edge's index in the neighbor's row (Entry.Peer), and
//   - resolve (node, edge id) to the node's neighbor-list index (EdgeIndex)
//
// each read one entry or one record, instead of a 2m-entry map probe, a
// [][]HalfEdge pointer chase or a walk across parallel columns. Unlike CSR
// (the analysis view), rows are NOT latency-sorted: the runtime's EdgeIndex
// contract is an index into Graph.Neighbors(u), and the simulator/live
// equivalence suite holds the two engines to identical indices, so the flat
// rows mirror the adjacency order exactly.
//
// A graph is fixed once built, so one AdjCSR serves a whole run.
type AdjCSR struct {
	n        int
	rowStart []int32 // len n+1; row u is ents[rowStart[u]:rowStart[u+1]]
	ents     []Entry // len 2m; adjacency order
	edges    []edgeRec
}

// Entry is one packed half-edge of an AdjCSR row.
type Entry struct {
	To   int32 // the neighbor
	Lat  int32 // the edge latency
	ID   int32 // the edge id (index into Graph.Edges)
	Peer int32 // the index of this edge in To's row
}

// edgeRec is edge e's cross index: its flat positions in the rows of its two
// endpoints. posU is the position in row endU (the endpoint whose row was
// filled first), posV the other. EdgeIndex picks by comparing the queried
// node against endU.
type edgeRec struct {
	endU, posU, posV int32
}

// BuildAdjCSR constructs the adjacency-order CSR view of g. Edge IDs are
// assumed dense in [0, M) — the contract of HalfEdge.ID.
func BuildAdjCSR(g *Graph) *AdjCSR {
	n := g.N()
	c := &AdjCSR{n: n}
	c.rowStart = make([]int32, n+1)
	for u := 0; u < n; u++ {
		c.rowStart[u+1] = c.rowStart[u] + int32(g.Degree(u))
	}
	c.ents = make([]Entry, c.rowStart[n])
	c.edges = make([]edgeRec, g.M())
	for i := range c.edges {
		c.edges[i].posU = -1
	}
	for u := 0; u < n; u++ {
		p := c.rowStart[u]
		for _, he := range g.Neighbors(u) {
			c.ents[p] = Entry{To: int32(he.To), Lat: int32(he.Latency), ID: int32(he.ID)}
			r := &c.edges[he.ID]
			if r.posU < 0 {
				r.endU, r.posU = int32(u), p
			} else {
				// The second half of the edge: both positions are known,
				// so each half learns its index in the other's row.
				r.posV = p
				c.ents[p].Peer = r.posU - c.rowStart[r.endU]
				c.ents[r.posU].Peer = p - c.rowStart[u]
			}
			p++
		}
	}
	return c
}

// N reports the number of nodes.
func (c *AdjCSR) N() int { return c.n }

// M reports the number of (undirected) edges.
func (c *AdjCSR) M() int { return len(c.edges) }

// Degree returns u's degree.
func (c *AdjCSR) Degree(u NodeID) int {
	return int(c.rowStart[u+1] - c.rowStart[u])
}

// Row returns u's packed half-edges, entry i mirroring
// Graph.Neighbors(u)[i]. The caller must not modify it.
func (c *AdjCSR) Row(u NodeID) []Entry {
	return c.ents[c.rowStart[u]:c.rowStart[u+1]]
}

// EdgeIndex resolves edge id to its index in u's neighbor list — the value
// idx with Graph.Neighbors(u)[idx].ID == id — or -1 when the edge is not
// incident to u (misrouted traffic, synthetic membership edge IDs). It reads
// the edge's one record and u's row bounds: a position inside u's row can
// only be u's own half of the edge, since rows are disjoint and the graph
// has no self loops.
func (c *AdjCSR) EdgeIndex(u NodeID, id int) int {
	if uint(id) >= uint(len(c.edges)) {
		return -1
	}
	r := &c.edges[id]
	p := r.posV
	if r.endU == int32(u) {
		p = r.posU
	}
	lo := c.rowStart[u]
	if p < lo || p >= c.rowStart[u+1] {
		return -1
	}
	return int(p - lo)
}
