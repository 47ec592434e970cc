package sim

import (
	"fmt"

	"gossip/internal/graph"
)

// Env is the engine backend behind a Context — the seam that lets different
// runtimes drive the same Handler state machines. The round simulator's
// Network implements it for deterministic lockstep execution; internal/live
// implements it for wall-clock execution over real concurrent transports.
//
// An Env is per-node: every method answers for the single node it serves,
// and Initiate is only ever called from that node's engine callbacks, which
// run on one goroutine per node at a time (the round-engine or live shard
// that owns the node, or a Proc body that shard resumes), so
// implementations need no internal locking for it.
type Env interface {
	// NodeID returns the identity of the node this environment serves.
	NodeID() graph.NodeID
	// Graph returns the network graph (topology is global knowledge for
	// neighbor lists; latencies are gated by KnownLatencies).
	Graph() *graph.Graph
	// Round returns the node's current round (a live runtime's tick count).
	Round() int
	// NHint returns the network-size upper bound known to nodes.
	NHint() int
	// Seed returns the run's master seed; per-node random streams derive
	// from it, so two runtimes with equal seeds give every node identical
	// randomness regardless of scheduling.
	Seed() uint64
	// KnownLatencies reports whether nodes may observe adjacent latencies.
	KnownLatencies() bool
	// Initiate starts an exchange on the node's idx-th edge. At most one
	// initiation per node per round is allowed.
	Initiate(idx int, payload Payload) error
}

// NewContext builds a Context over an engine backend. Runtimes other than
// the round simulator use this to drive Handlers unchanged.
func NewContext(env Env) *Context { return &Context{env: env} }

// nodeEnv is the round simulator's Env: it binds a Network to one node and
// the shard that runs it.
type nodeEnv struct {
	nw   *Network
	sh   *shard
	node *nodeState
}

var _ Env = (*nodeEnv)(nil)

func (e *nodeEnv) NodeID() graph.NodeID { return e.node.id }
func (e *nodeEnv) Graph() *graph.Graph  { return e.nw.g }
func (e *nodeEnv) Round() int           { return e.nw.round }
func (e *nodeEnv) NHint() int           { return e.nw.cfg.NHint }
func (e *nodeEnv) Seed() uint64         { return e.nw.cfg.Seed }
func (e *nodeEnv) KnownLatencies() bool { return e.nw.cfg.KnownLatencies }

// Initiate schedules the request event on the round calendar; the paper's
// split delivery (⌈ℓ/2⌉ out, ⌊ℓ/2⌋ back) happens in Network.deliver.
func (e *nodeEnv) Initiate(idx int, payload Payload) error {
	if e.node.initiated {
		return fmt.Errorf("sim: node %d already initiated in round %d", e.node.id, e.nw.round)
	}
	nw := e.nw
	row := nw.g.Neighbors(e.node.id)
	if idx < 0 || idx >= len(row) {
		return fmt.Errorf("sim: node %d edge index %d out of range [0,%d)", e.node.id, idx, len(row))
	}
	e.node.initiated = true
	he := &row[idx]
	sh := e.sh
	ev := sh.getEvent()
	ev.kind = evRequest
	ev.from = int32(e.node.id)
	ev.to = he.To
	ev.edgeID = he.ID
	ev.toIdx = he.Peer
	ev.backIdx = int32(idx)
	ev.latency = he.Lat
	ev.initiatedAt = int32(nw.round)
	ev.payload = payload
	sh.send(nw.round+nw.reqDelay(he.Lat), ev)
	sh.metrics.Requests++
	sh.metrics.EdgeActivations++
	e.node.load.Initiated++
	sh.metrics.Bytes += PayloadSize(payload)
	if nw.cfg.Trace != nil {
		nw.cfg.Trace(TraceEvent{Kind: TraceInitiate, Round: nw.round, From: e.node.id, To: int(he.To), EdgeID: int(he.ID), Latency: int(he.Lat)})
	}
	return nil
}
