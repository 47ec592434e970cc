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
// edge's latency becomes real wall-clock time. Send must not block on slow
// receivers (delivery happens asynchronously); a delivery that cannot
// complete by the time the transport closes is dropped, mirroring a message
// lost to a crashed node. Payloads must be treated as immutable once passed
// to Send, exactly as the round engine requires.
//
// Recv returns the inbox of a node hosted by this transport, or nil for
// nodes hosted elsewhere (multi-process deployments).
//
// Close stops all delivery and releases listeners, connections, and pending
// timers. Close the transport only after every runtime using it returned.
type Transport interface {
	Send(msg Message, delay time.Duration) error
	Recv(u graph.NodeID) <-chan Message
	Close() error
}

// DrainReport summarizes a graceful transport drain: what was flushed, what
// the deadline abandoned, and whether the drain finished clean.
type DrainReport struct {
	// Clean is true when every queue emptied and every reliable send
	// resolved before the deadline.
	Clean bool
	// AbandonedTimers counts latency-delay deliveries the drain stopped
	// before they reached the wire: timers still armed when it began, plus
	// any already firing that the draining gate then refused (they are also
	// counted as transport drops — a draining process is leaving, so a
	// not-yet-sent message is a loss).
	AbandonedTimers int64
	// QueuedAtClose and PendingAtClose count, in logical messages, what was
	// still outstanding when the deadline expired: messages not yet written
	// (a delay callback still running, a writer queue, a writer's hands) and
	// unacked reliable sends (both zero on a clean drain).
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

// DeliverySink is the sharded runtime's fast path into a transport: instead
// of buffering locally destined messages on per-node inbox channels, a
// transport hands them straight to the owning shard, which applies delay on
// its own timer wheel. The sink reports false when it cannot accept the
// message (runtime not running, node not hosted by the sink); the transport
// must then fall back to its legacy inbox delivery so raw-transport users
// (tests, benchmarks, foreign runtimes) keep working.
//
// Sinks must be non-blocking and safe for concurrent use.
type DeliverySink func(msg Message, delay time.Duration) bool

// SinkTransport is implemented by transports that can route locally hosted
// traffic through a DeliverySink and can answer hosting queries without
// materializing an inbox channel. Hosts reports whether this transport is
// responsible for delivering to u (Recv(u) would be non-nil), without the
// allocation. SetSink installs (or, with nil, removes) the runtime's sink and
// reports whether the transport honors it — decorators forward SetSink to
// their inner transport and report false when it doesn't participate, in
// which case the runtime falls back to inbox-forwarding goroutines.
type SinkTransport interface {
	Hosts(u graph.NodeID) bool
	SetSink(sink DeliverySink) bool
}
