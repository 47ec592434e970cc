package live

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gossip/internal/graph"
)

// DefaultInboxBuffer is the per-node inbox capacity used when a transport is
// built with buffer <= 0. It only bounds memory: a full inbox delays the
// sender's delivery callback, it never drops a message while the transport is
// open.
const DefaultInboxBuffer = 1024

// ChanTransport is the in-process transport, with each edge's latency
// injected as a real timer delay on a shared hierarchical timer wheel. It is
// the live counterpart of the simulator's round calendar and the transport
// used by gossip.RunLive.
//
// When the sharded runtime installs a DeliverySink, locally destined traffic
// bypasses inbox channels entirely — the sink hands each message to the
// sending node's shard, which applies the delay on its own calendar or hands
// the message to the owning shard. Inbox channels are
// materialized lazily, only for nodes a caller actually Recvs on (raw
// transport tests, foreign runtimes), so hosting 100k nodes does not allocate
// 100k buffered channels up front.
type ChanTransport struct {
	n           int
	buffer      int
	mu          sync.Mutex     // guards inboxes
	inboxes     []chan Message // lazily created; nil until first use
	sink        atomic.Pointer[DeliverySink]
	delays      *timerWheel  // armed latency delays for legacy inbox deliveries
	dropsClosed atomic.Int64 // deliveries abandoned at Close
	closed      chan struct{}
	closeOnce   sync.Once
}

var _ Transport = (*ChanTransport)(nil)
var _ SinkTransport = (*ChanTransport)(nil)
var _ FaultReporter = (*ChanTransport)(nil)

// NewChanTransport builds an in-process transport hosting nodes 0..n-1 with
// the given per-node inbox capacity (<= 0 means DefaultInboxBuffer).
func NewChanTransport(n, buffer int) *ChanTransport {
	if buffer <= 0 {
		buffer = DefaultInboxBuffer
	}
	return &ChanTransport{
		n:       n,
		buffer:  buffer,
		inboxes: make([]chan Message, n),
		delays:  newTimerWheel(0),
		closed:  make(chan struct{}),
	}
}

// inbox returns u's inbox channel, creating it on first use.
func (t *ChanTransport) inbox(u graph.NodeID) chan Message {
	t.mu.Lock()
	ch := t.inboxes[u]
	if ch == nil {
		ch = make(chan Message, t.buffer)
		t.inboxes[u] = ch
	}
	t.mu.Unlock()
	return ch
}

// Send implements Transport by scheduling an in-memory delivery after delay.
func (t *ChanTransport) Send(msg Message, delay time.Duration) error {
	select {
	case <-t.closed:
		return ErrTransportClosed
	default:
	}
	if msg.To < 0 || int(msg.To) >= t.n {
		return fmt.Errorf("live: destination %d out of range [0,%d)", msg.To, t.n)
	}
	if s := t.sink.Load(); s != nil && (*s)(msg, delay) {
		return nil
	}
	tm := t.delays.schedule(delay, func() {
		select {
		case t.inbox(msg.To) <- msg:
		case <-t.closed:
		}
	})
	if tm == nil {
		t.dropsClosed.Add(1)
		return ErrTransportClosed
	}
	return nil
}

// Recv implements Transport.
func (t *ChanTransport) Recv(u graph.NodeID) <-chan Message {
	if u < 0 || int(u) >= t.n {
		return nil
	}
	return t.inbox(u)
}

// Hosts implements SinkTransport without materializing an inbox.
func (t *ChanTransport) Hosts(u graph.NodeID) bool {
	return u >= 0 && int(u) < t.n
}

// SetSink implements SinkTransport.
func (t *ChanTransport) SetSink(sink DeliverySink) bool {
	if sink == nil {
		t.sink.Store(nil)
	} else {
		t.sink.Store(&sink)
	}
	return true
}

// Close implements Transport; pending deliveries are stopped, counted, and
// abandoned.
func (t *ChanTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.dropsClosed.Add(t.delays.close())
	})
	return nil
}

// PendingDeliveries returns the number of armed delivery timers — zero after
// Close (the timer-hygiene guarantee tests rely on).
func (t *ChanTransport) PendingDeliveries() int { return t.delays.len() }

// Drain implements Drainer: in-process delivery has no write queues to
// flush, so draining means letting the armed latency delays fire until ctx
// expires, then closing (which abandons and counts whatever remains).
func (t *ChanTransport) Drain(ctx context.Context) (DrainReport, error) {
	start := time.Now()
	rep := DrainReport{}
	poll := time.NewTimer(time.Millisecond)
	defer poll.Stop()
	for t.delays.len() > 0 {
		select {
		case <-ctx.Done():
			rep.QueuedAtClose = t.delays.len()
			t.Close()
			rep.Wall = time.Since(start)
			return rep, ctx.Err()
		case <-t.closed:
			rep.Wall = time.Since(start)
			return rep, ErrTransportClosed
		case <-poll.C:
			poll.Reset(time.Millisecond)
		}
	}
	rep.Clean = true
	t.Close()
	rep.Wall = time.Since(start)
	return rep, nil
}

// Faults implements FaultReporter: the channel transport's only loss path is
// deliveries abandoned at Close.
func (t *ChanTransport) Faults() FaultReport {
	return FaultReport{FaultCounts: FaultCounts{TransportDrops: t.dropsClosed.Load()}}
}
