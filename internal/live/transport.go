package live

import (
	"context"
	"errors"
	"time"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

// MsgKind distinguishes the two halves of an exchange and the membership
// layer's traffic.
type MsgKind uint8

const (
	// MsgRequest is the initiator→responder half of an exchange.
	MsgRequest MsgKind = iota + 1
	// MsgResponse is the responder→initiator half.
	MsgResponse
	// MsgMember carries a SWIM membership packet (probe, ack, ping-req,
	// sync) with piggybacked membership deltas. Member messages flow between
	// arbitrary node pairs and use unique synthetic negative EdgeIDs rather
	// than graph edges.
	MsgMember
)

// Message is one in-flight half of an exchange. It is the live counterpart
// of the round simulator's calendar event: Latency is the edge's latency in
// rounds (ticks) and SentTick the initiator's tick at initiation, so the
// receiver can reconstruct the same sim.Request/sim.Response the lockstep
// engine would have delivered.
type Message struct {
	Kind     MsgKind
	From, To graph.NodeID
	EdgeID   int
	Latency  int
	SentTick int
	Payload  sim.Payload
}

// ErrTransportClosed reports a Send on a closed transport.
var ErrTransportClosed = errors.New("live: transport closed")

// Transport moves messages between nodes. Implementations must be safe for
// concurrent use: every node goroutine sends through the same transport.
//
// Send schedules msg for delivery to msg.To after delay — this is where an
// edge's latency becomes real wall-clock time, applied by the receiving
// runtime: the transport hands msg and delay to the destination's
// DeliverySink (a stream transport carries the delay on the wire). Send
// never blocks on delivery, on any transport: not on a receiver, not on the
// network. (The one wait left is local and bounded: a membership frame's
// backpressure on a stream connection's full writer queue, at most
// memberWaitMax.) A message no sink takes — none is installed, or the sink
// refused it — is a counted drop, mirroring a message lost to a crashed
// node; a stream transport's read loop likewise waits only on its socket.
// Payloads must be treated as immutable once passed to Send, exactly as the
// round engine requires.
//
// Recv is a stub that returns nil on every transport in this package:
// delivery goes through the sink alone. It stays on the interface only
// because a frozen benchmark test still calls it through Transport; that
// call goes first (ROADMAP item 1(a)), then the method (item 2).
//
// Close stops all delivery and releases listeners and connections. Close
// the transport only after every runtime using it returned.
type Transport interface {
	Send(msg Message, delay time.Duration) error
	Recv(u graph.NodeID) <-chan Message
	Close() error
}

// DrainReport summarizes a graceful transport drain: what was flushed, what
// the deadline abandoned, and whether the drain finished clean.
type DrainReport struct {
	// Clean is true when every queue emptied and every written message was
	// acked, or lost with its connection, before the deadline.
	Clean bool
	// QueuedAtClose counts, in logical messages, what the drain gave up on
	// before it reached the wire — behind a dial it stopped, on a connection
	// that broke, and at the deadline in writer queues. PendingAtClose
	// counts written messages it gave up on unacked: lost with a connection
	// that broke during the drain, or left at the deadline. All are also
	// transport drops.
	QueuedAtClose  int
	PendingAtClose int
	// Wall is the drain's duration.
	Wall time.Duration
}

// Drainer is implemented by transports that support graceful shutdown:
// Drain stops admitting new sends, flushes what is already queued until ctx
// expires, then closes the transport. The FaultTransport decorator forwards
// Drain to its inner transport.
type Drainer interface {
	Drain(ctx context.Context) (DrainReport, error)
}

// DeliverySink is how a transport delivers: it hands every message for a
// hosted node — local sends and network arrivals alike — straight to the
// runtime, which applies delay on its shards' calendars. The sink reports
// false when it cannot accept the message (node not hosted by the runtime);
// the transport then counts the message as dropped, as it does when no sink
// is installed.
//
// Sinks must be non-blocking and safe for concurrent use, with one rule on
// who calls them: the runtime routes a message whose From it hosts on that
// node's own shard state, without a lock. So while a runtime is attached,
// only its shard goroutines (and sim.Proc coroutines, which run in lockstep
// with their shard) may Send a message from a node it hosts, and a
// transport must never hand the sink a network arrival claiming such a
// sender — it drops and counts it as misrouted instead.
type DeliverySink func(msg Message, delay time.Duration) bool

// SinkTransport is implemented by every transport a runtime can run on.
// Hosts reports whether this transport is responsible for delivering to u.
// SetSink installs (or, with nil, removes) the runtime's sink and reports
// whether the transport honors it — decorators forward SetSink to their
// inner transport and report false when it doesn't participate, in which
// case Run refuses the transport.
type SinkTransport interface {
	Hosts(u graph.NodeID) bool
	SetSink(sink DeliverySink) bool
}
