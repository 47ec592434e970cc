package core

import (
	"testing"
	"testing/quick"

	"gossip/internal/graph"
)

func TestRumorKnowledgeBasics(t *testing.T) {
	k := newRumorKnowledge(8, 3)
	if !k.Has(3) {
		t.Fatal("own rumor must be present")
	}
	if k.Has(0) {
		t.Fatal("unknown rumor reported present")
	}
	other := newRumorKnowledge(8, 5)
	if !k.Merge(other.Snapshot()) {
		t.Fatal("rumor payload not recognized")
	}
	if !k.Has(5) {
		t.Error("merge did not import rumor 5")
	}
	if k.Merge(nbPayload{}) {
		t.Error("rumor container must reject neighborhood payloads")
	}
	k.NoteDirect(5)
	if !k.Direct(5) || k.Direct(3) {
		t.Error("direct bookkeeping wrong")
	}
}

func TestRumorDigestDistinguishesSets(t *testing.T) {
	a := newRumorKnowledge(16, 0)
	b := newRumorKnowledge(16, 0)
	if a.digest() != b.digest() {
		t.Fatal("equal sets must share a digest")
	}
	b.know.Add(7)
	if a.digest() == b.digest() {
		t.Error("different sets share a digest")
	}
}

func TestQuickDigestInjectiveish(t *testing.T) {
	// Digests of distinct small sets collide with negligible probability.
	f := func(x, y uint8) bool {
		a := newRumorKnowledge(256, int(x))
		b := newRumorKnowledge(256, int(y))
		if x == y {
			return a.digest() == b.digest()
		}
		return a.digest() != b.digest()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNbKnowledgeFirstCopyWins(t *testing.T) {
	own := []graph.Entry{{To: 1, Lat: 2}}
	k := newNbKnowledge(0, own)
	if !k.Has(0) || k.Has(1) {
		t.Fatal("initial adjacency wrong")
	}
	p1 := nbPayload{entries: []adjEntry{{Node: 1, Edges: []graph.Entry{{To: 0, Lat: 2}}}}}
	if !k.Merge(p1) {
		t.Fatal("nb payload not recognized")
	}
	// A conflicting later copy must not overwrite (adjacency is a fact).
	p2 := nbPayload{entries: []adjEntry{{Node: 1, Edges: []graph.Entry{{To: 9, Lat: 9}}}}}
	k.Merge(p2)
	if len(k.adj[1]) != 1 || k.adj[1][0].To != 0 {
		t.Errorf("adjacency of node 1 overwritten: %v", k.adj[1])
	}
}

func TestNbBuildGraphFiltersLatency(t *testing.T) {
	k := newNbKnowledge(0, []graph.Entry{{To: 1, Lat: 2}, {To: 2, Lat: 9}})
	k.Merge(nbPayload{entries: []adjEntry{
		{Node: 1, Edges: []graph.Entry{{To: 0, Lat: 2}, {To: 2, Lat: 3}}},
	}})
	g := k.buildGraph(3, 5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Error("expected edges missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("latency-9 edge should be filtered at maxLatency=5")
	}
	full := k.buildGraph(3, 0)
	if !full.HasEdge(0, 2) {
		t.Error("maxLatency=0 must keep all edges")
	}
}

func TestNbBuildGraphIgnoresOutOfRange(t *testing.T) {
	k := newNbKnowledge(0, []graph.Entry{{To: 7, Lat: 1}})
	g := k.buildGraph(2, 0)
	if g.M() != 0 {
		t.Errorf("out-of-range endpoint produced %d edges", g.M())
	}
}

func TestStatusKnowledgePhaseIsolation(t *testing.T) {
	k := newStatusKnowledge(4, 0, nodeStatus{Digest: 11})
	// Same phase merges.
	same := statusPayload{phase: 4, entries: map[graph.NodeID]nodeStatus{1: {Digest: 22}}}
	if !k.Merge(same) {
		t.Fatal("status payload not recognized")
	}
	if !k.Has(1) {
		t.Error("same-phase entry not merged")
	}
	// Different phase consumed but ignored.
	stale := statusPayload{phase: 3, entries: map[graph.NodeID]nodeStatus{2: {Digest: 33}}}
	if !k.Merge(stale) {
		t.Error("stale status payload should still be consumed")
	}
	if k.Has(2) {
		t.Error("stale-phase entry leaked into the table")
	}
}

func TestStatusFlagsSticky(t *testing.T) {
	k := newStatusKnowledge(1, 0, nodeStatus{})
	k.Merge(statusPayload{phase: 1, entries: map[graph.NodeID]nodeStatus{5: {Flag: true}}})
	k.Merge(statusPayload{phase: 1, entries: map[graph.NodeID]nodeStatus{5: {Flag: false, Failed: true}}})
	got := k.entries[5]
	if !got.Flag || !got.Failed {
		t.Errorf("sticky bits lost: %+v", got)
	}
}

func TestStatusSnapshotIsCopy(t *testing.T) {
	k := newStatusKnowledge(1, 0, nodeStatus{Digest: 1})
	snap, ok := k.Snapshot().(statusPayload)
	if !ok {
		t.Fatal("snapshot type")
	}
	snap.entries[9] = nodeStatus{}
	if k.Has(9) {
		t.Error("mutating a snapshot leaked into the container")
	}
}

func TestPayloadSizes(t *testing.T) {
	if s := (bitPayload{}).SizeBytes(); s != 1 {
		t.Errorf("bitPayload size = %d", s)
	}
	if s := (probePayload{}).SizeBytes(); s != 1 {
		t.Errorf("probePayload size = %d", s)
	}
	rp := snapshotRumors(newRumorKnowledge(128, 0).know)
	if rp.SizeBytes() != 16 {
		t.Errorf("128-bit rumor payload = %d bytes, want 16", rp.SizeBytes())
	}
	np := nbPayload{entries: []adjEntry{{Node: 0, Edges: make([]graph.Entry, 3)}}}
	if np.SizeBytes() != 8+24 {
		t.Errorf("nb payload size = %d", np.SizeBytes())
	}
	sp := statusPayload{entries: map[graph.NodeID]nodeStatus{0: {}, 1: {}}}
	if sp.SizeBytes() != 4+32 {
		t.Errorf("status payload size = %d", sp.SizeBytes())
	}
}
