package core

import (
	"gossip/internal/bitset"
	"gossip/internal/graph"
	"gossip/internal/rng"
	"gossip/internal/sim"
)

// knowledge abstracts the monotone state that gossip phases spread: rumor
// sets (all-to-all dissemination), adjacency maps (neighborhood gathering for
// the spanner), and status tables (termination detection). The DTG, RR and
// T(k) phases all operate on this interface.
type knowledge interface {
	// Has reports whether id's item is already known.
	Has(id graph.NodeID) bool
	// Snapshot returns an immutable payload of the current state.
	Snapshot() sim.Payload
	// Merge folds a payload of the matching type into the state; it reports
	// whether the payload was of the matching type.
	Merge(p sim.Payload) bool
	// NoteDirect records a completed direct exchange with id.
	NoteDirect(id graph.NodeID)
	// Direct reports whether a direct exchange with id has completed.
	Direct(id graph.NodeID) bool
}

// ---- rumor sets ----

// rumorKnowledge tracks which nodes' rumors this node holds.
type rumorKnowledge struct {
	know   *bitset.Set
	direct *bitset.Set
}

var _ knowledge = (*rumorKnowledge)(nil)

func newRumorKnowledge(n int, self graph.NodeID) *rumorKnowledge {
	k := &rumorKnowledge{know: bitset.New(n), direct: bitset.New(n)}
	k.know.Add(self)
	return k
}

func (k *rumorKnowledge) Has(id graph.NodeID) bool { return k.know.Contains(id) }
func (k *rumorKnowledge) Snapshot() sim.Payload    { return snapshotRumors(k.know) }

func (k *rumorKnowledge) Merge(p sim.Payload) bool {
	rp, ok := p.(rumorPayload)
	if !ok || rp.set == nil {
		return ok
	}
	k.know.UnionWith(rp.set)
	return true
}

func (k *rumorKnowledge) NoteDirect(id graph.NodeID)  { k.direct.Add(id) }
func (k *rumorKnowledge) Direct(id graph.NodeID) bool { return k.direct.Contains(id) }

// digest returns a content hash of the rumor set, used by the termination
// check to compare rumor sets without shipping them around twice.
func (k *rumorKnowledge) digest() uint64 {
	vals := make([]uint64, 0, 16)
	k.know.ForEach(func(i int) bool {
		vals = append(vals, uint64(i)+1)
		return true
	})
	return rng.Hash(vals...)
}

// ---- neighborhood (adjacency) knowledge ----

// adjEntry is one node's adjacency list as shared during gathering.
type adjEntry struct {
	Node  graph.NodeID
	Edges []graph.Entry // To and Lat are meaningful; ID is local
}

// nbPayload carries a snapshot of known adjacency lists.
type nbPayload struct {
	entries []adjEntry
}

var _ sim.Sizer = nbPayload{}

// SizeBytes implements sim.Sizer: 8 bytes per known (node, edge) item.
func (p nbPayload) SizeBytes() int {
	sz := 0
	for _, e := range p.entries {
		sz += 8 + 8*len(e.Edges)
	}
	return sz
}

// nbKnowledge accumulates the adjacency lists of other nodes — the
// "neighborhood discovery" state of Theorem 14's proof.
type nbKnowledge struct {
	adj    map[graph.NodeID][]graph.Entry
	direct map[graph.NodeID]bool
}

var _ knowledge = (*nbKnowledge)(nil)

func newNbKnowledge(self graph.NodeID, own []graph.Entry) *nbKnowledge {
	k := &nbKnowledge{
		adj:    make(map[graph.NodeID][]graph.Entry, 8),
		direct: make(map[graph.NodeID]bool, 8),
	}
	k.adj[self] = own
	return k
}

func (k *nbKnowledge) Has(id graph.NodeID) bool { _, ok := k.adj[id]; return ok }

func (k *nbKnowledge) Snapshot() sim.Payload {
	entries := make([]adjEntry, 0, len(k.adj))
	for id, edges := range k.adj {
		entries = append(entries, adjEntry{Node: id, Edges: edges})
	}
	return nbPayload{entries: entries}
}

func (k *nbKnowledge) Merge(p sim.Payload) bool {
	np, ok := p.(nbPayload)
	if !ok {
		return false
	}
	for _, e := range np.entries {
		if _, seen := k.adj[e.Node]; !seen {
			// Adjacency lists are immutable facts; first copy wins.
			k.adj[e.Node] = e.Edges
		}
	}
	return true
}

func (k *nbKnowledge) NoteDirect(id graph.NodeID)  { k.direct[id] = true }
func (k *nbKnowledge) Direct(id graph.NodeID) bool { return k.direct[id] }

// buildGraph assembles the gathered adjacency knowledge into a graph on n
// nodes containing every known edge with latency <= maxLatency (0 = all).
func (k *nbKnowledge) buildGraph(n, maxLatency int) *graph.Graph {
	b := graph.New(n)
	for u, edges := range k.adj {
		for _, he := range edges {
			to, lat := int(he.To), int(he.Lat)
			if maxLatency > 0 && lat > maxLatency {
				continue
			}
			if to < 0 || to >= n || b.HasEdge(u, to) {
				continue
			}
			b.MustAddEdge(u, to, lat)
		}
	}
	return b.Build()
}

// ---- termination-check status tables ----

// nodeStatus is one node's contribution to a termination check.
type nodeStatus struct {
	Digest uint64 // hash of the node's rumor set at check time
	Flag   bool   // the flag bit of Algorithm 1
	Failed bool   // set during the second broadcast phase
}

// statusPayload carries a phase-tagged status table.
type statusPayload struct {
	phase   int
	entries map[graph.NodeID]nodeStatus
}

var _ sim.Sizer = statusPayload{}

// SizeBytes implements sim.Sizer.
func (p statusPayload) SizeBytes() int { return 4 + 16*len(p.entries) }

// statusKnowledge collects the status entries of a single check phase;
// entries from other phases are ignored on merge.
type statusKnowledge struct {
	phase   int
	entries map[graph.NodeID]nodeStatus
	direct  map[graph.NodeID]bool
}

var _ knowledge = (*statusKnowledge)(nil)

func newStatusKnowledge(phase int, self graph.NodeID, st nodeStatus) *statusKnowledge {
	return &statusKnowledge{
		phase:   phase,
		entries: map[graph.NodeID]nodeStatus{self: st},
		direct:  make(map[graph.NodeID]bool, 8),
	}
}

func (k *statusKnowledge) Has(id graph.NodeID) bool { _, ok := k.entries[id]; return ok }

func (k *statusKnowledge) Snapshot() sim.Payload {
	entries := make(map[graph.NodeID]nodeStatus, len(k.entries))
	for id, st := range k.entries {
		entries[id] = st
	}
	return statusPayload{phase: k.phase, entries: entries}
}

func (k *statusKnowledge) Merge(p sim.Payload) bool {
	sp, ok := p.(statusPayload)
	if !ok {
		return false
	}
	if sp.phase != k.phase {
		return true // stale phase; consume silently
	}
	for id, st := range sp.entries {
		cur, seen := k.entries[id]
		if !seen {
			k.entries[id] = st
			continue
		}
		// Failed and Flag bits are sticky.
		cur.Failed = cur.Failed || st.Failed
		cur.Flag = cur.Flag || st.Flag
		k.entries[id] = cur
	}
	return true
}

func (k *statusKnowledge) NoteDirect(id graph.NodeID)  { k.direct[id] = true }
func (k *statusKnowledge) Direct(id graph.NodeID) bool { return k.direct[id] }
