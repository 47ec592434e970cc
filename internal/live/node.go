package live

import (
	"fmt"
	"sync/atomic"
	"time"

	"gossip/internal/graph"
	"gossip/internal/member"
	"gossip/internal/sim"
)

// node is one locally hosted protocol instance: a sim.Handler driven through
// the same deliver-then-tick cycle as the round simulator, but against
// wall-clock ticks and a real transport. It implements sim.Env, so the
// handler runs unchanged. Nodes live in their owning shard's dense slice
// (see shard.go) — there is no per-node goroutine, ticker, or timer; the
// shard's event loop delivers arrivals and sweeps onTick.
//
// All non-atomic fields are owned by the owning shard's goroutine. The
// atomic flags are the node's only outward-facing state, polled by the
// runtime watcher.
type node struct {
	rt  *Runtime
	sh  *shard // owner: its sweep count is the node's wall clock
	id  graph.NodeID
	h   sim.Handler
	ctx *sim.Context

	tick      int  // protocol round counter (frozen while halted)
	initiated bool // initiated an exchange this tick
	recoverAt int  // planned recovery sweep (0 = never): the watcher's permanent-crash test
	halted    bool
	left      bool // broadcast its membership leave (graceful stop)

	done      atomic.Bool // local protocol goal reached
	crashed   atomic.Bool
	recovered atomic.Bool
	exhausted atomic.Bool // tick budget spent or handler locally terminated

	// mem is the node's SWIM failure detector (nil without
	// Options.Membership). It is an atomic pointer because rejoin swaps in a
	// fresh detector while the runtime watcher reads the old one.
	mem     atomic.Pointer[member.Node]
	memEdge int // synthetic edge ID counter for member packets (negative)

	m Metrics // node-local counters, aggregated after the goroutine joins
}

var _ sim.Env = (*node)(nil)

func (n *node) NodeID() graph.NodeID { return n.id }
func (n *node) Graph() *graph.Graph  { return n.rt.g }
func (n *node) Round() int           { return n.tick }
func (n *node) NHint() int           { return n.rt.nhint }
func (n *node) Seed() uint64         { return n.rt.opts.Seed }
func (n *node) KnownLatencies() bool { return n.rt.proto.KnownLatencies() }

// Initiate implements sim.Env: the request is handed to the transport with
// the paper's split delivery delay (⌈ℓ/2⌉ ticks out, ⌊ℓ/2⌋ back), scaled by
// the tick duration.
func (n *node) Initiate(idx int, payload sim.Payload) error {
	if n.initiated {
		return fmt.Errorf("live: node %d already initiated in tick %d", n.id, n.tick)
	}
	row := n.rt.g.Neighbors(n.id)
	if idx < 0 || idx >= len(row) {
		return fmt.Errorf("live: node %d edge index %d out of range [0,%d)", n.id, idx, len(row))
	}
	he := &row[idx]
	msg := Message{
		Kind:     MsgRequest,
		From:     n.id,
		To:       int(he.To),
		EdgeID:   int(he.ID),
		Latency:  int(he.Lat),
		SentTick: n.tick,
		Payload:  payload,
	}
	delay := time.Duration((he.Lat+1)/2) * n.rt.opts.Tick
	if err := n.rt.tr.Send(msg, delay); err != nil {
		return err
	}
	n.initiated = true
	n.m.Requests++
	n.m.EdgeActivations++
	n.m.Bytes += sim.PayloadSize(payload)
	return nil
}

// onTick runs the node's part of a working sweep, the live analogue of the
// simulator's phase B: the failure detector ticks (member is whether the run
// has one), then a handler that has not terminated takes one protocol round.
// The shard calls it only on sweeps on which its nodes may initiate: not
// held, quiesced, leaving or out of budget (see shard.sweep).
func (n *node) onTick(member bool) {
	if n.halted {
		return
	}
	// The failure detector ticks for as long as the process is up — through
	// quiescence and past protocol termination — because peers rely on our
	// acks and deltas to keep their views truthful.
	if member {
		n.memberTick()
	}
	if n.h.Done() {
		// Locally terminated handlers are no longer ticked (as in the round
		// engine); they still answer requests, but can make no further
		// progress of their own, so the watcher counts them as stopped —
		// a fixed-schedule protocol that missed its window fails closed
		// instead of hanging until the tick budget runs dry.
		n.setExhausted(true)
		return
	}
	n.tick++
	n.initiated = false
	n.h.Tick(n.ctx)
	n.updateDone()
}

// halt fail-stops the node: it stops ticking, drops incoming messages, and
// loses its local state (the outward done flag clears — a crashed node has
// no goal to report).
func (n *node) halt() {
	n.halted = true
	n.crashed.Store(true)
	n.setDone(false)
	n.stopHandler()
}

// rejoin brings a crashed node back at its scheduled recovery tick with a
// fresh handler — cleared protocol state, as a process restarted from disk
// would have — while keeping its seeded random stream and round counter.
func (n *node) rejoin() {
	n.halted = false
	n.crashed.Store(false)
	n.recovered.Store(true)
	n.setExhausted(n.sh.sweeps > n.rt.opts.MaxTicks) // a spent budget stays spent
	n.h = n.rt.proto.NewHandler(n.id)
	n.initiated = false
	if n.mem.Load() != nil {
		// A recovered process restarts its detector from scratch too:
		// incarnation zero, only the seed peers known. The refutation rule
		// re-admits it against the cluster's dead records.
		n.mem.Store(n.rt.newMember(n.id))
	}
	n.h.Start(n.ctx)
	n.updateDone()
}

// stopHandler unwinds coroutine handlers (sim.Proc) so a crashed or
// shut-down node never leaves a parked body behind. Plain state-machine
// handlers have nothing to stop.
func (n *node) stopHandler() {
	if s, ok := n.h.(interface{ Stop() }); ok {
		s.Stop()
	}
}

// handle delivers one arrival to the handler — the live analogue of the
// simulator's phase A. Requests are answered immediately and the response
// travels back with the remaining ⌊ℓ/2⌋ delay.
func (n *node) handle(msg Message) {
	if msg.Kind == MsgMember {
		// Membership traffic bypasses the protocol handler entirely; its
		// synthetic edge IDs are not graph edges.
		n.handleMember(msg)
		return
	}
	idx := n.rt.g.EdgeIndex(n.id, msg.EdgeID)
	if idx < 0 {
		return // not an edge of ours: misrouted or corrupt
	}
	switch msg.Kind {
	case MsgRequest:
		resp := n.h.OnRequest(n.ctx, sim.Request{
			From:      msg.From,
			EdgeIndex: idx,
			Payload:   msg.Payload,
		})
		n.m.Responses++
		n.m.Bytes += sim.PayloadSize(resp)
		out := Message{
			Kind:     MsgResponse,
			From:     n.id,
			To:       msg.From,
			EdgeID:   msg.EdgeID,
			Latency:  msg.Latency,
			SentTick: msg.SentTick,
			Payload:  resp,
		}
		delay := time.Duration(msg.Latency-(msg.Latency+1)/2) * n.rt.opts.Tick
		// Best effort: a closing transport drops the response, just as a
		// crashing responder would.
		_ = n.rt.tr.Send(out, delay)
	case MsgResponse:
		n.h.OnResponse(n.ctx, sim.Response{
			From:        msg.From,
			EdgeIndex:   idx,
			Payload:     msg.Payload,
			Latency:     msg.Latency,
			InitiatedAt: msg.SentTick,
		})
	}
	n.updateDone()
}

func (n *node) updateDone() {
	// Only the protocol's goal counts: a handler's Done() merely says its
	// schedule ended (it stops ticking — see onTick), which for a
	// fixed-schedule protocol can happen without the goal being reached.
	n.setDone(n.rt.proto.LocalDone(n.id, n.h))
}

// setDone and setExhausted keep the runtime's aggregate counters exact while
// the flag flips, so the watcher's fast path replaces an O(hosted) scan per
// tick with two loads. Swap makes the delta race-free even though several
// shards update concurrently.
func (n *node) setDone(v bool) {
	if n.done.Swap(v) != v {
		if v {
			n.rt.doneN.Add(1)
		} else {
			n.rt.doneN.Add(-1)
		}
	}
}

func (n *node) setExhausted(v bool) {
	if n.exhausted.Swap(v) != v {
		if v {
			n.rt.stopN.Add(1)
		} else {
			n.rt.stopN.Add(-1)
		}
	}
}
