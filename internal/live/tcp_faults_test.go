package live

import (
	"sync"
	"testing"
	"time"

	"gossip/internal/graph"
)

// tcpPair builds two connected single-node transports for reliability tests.
func tcpPair(t *testing.T) (a, b *TCPTransport) {
	t.Helper()
	a, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = NewTCPTransport("127.0.0.1:0", []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.SetPeers(map[graph.NodeID]string{1: b.Addr().String()})
	b.SetPeers(map[graph.NodeID]string{0: a.Addr().String()})
	return a, b
}

// allAcked reports whether tr has nothing queued, nothing held by a writer
// and nothing written but unacked.
func allAcked(tr *StreamTransport) bool {
	queued, unacked := tr.stages()
	return queued == 0 && unacked == 0
}

// sinkInbox installs on tr a sink that feeds one buffered channel per
// destination and returns the lookup: the test's view of what the
// transport delivered. Install it before the first send, as a runtime
// would. The delay is the runtime's to apply, so the channel gets the
// message at once; a full channel fails the test instead of blocking the
// transport.
func sinkInbox(t testing.TB, tr SinkTransport) func(graph.NodeID) <-chan Message {
	var mu sync.Mutex
	chs := make(map[graph.NodeID]chan Message)
	of := func(u graph.NodeID) chan Message {
		mu.Lock()
		defer mu.Unlock()
		ch := chs[u]
		if ch == nil {
			// Room for the largest burst a test sends before it reads.
			ch = make(chan Message, 4096)
			chs[u] = ch
		}
		return ch
	}
	if !tr.SetSink(func(msg Message, _ time.Duration) bool {
		select {
		case of(msg.To) <- msg:
			return true
		default:
			t.Errorf("test inbox of node %d full", msg.To)
			return false
		}
	}) {
		t.Fatal("transport refused the sink")
	}
	return func(u graph.NodeID) <-chan Message { return of(u) }
}

func recvWithin(t *testing.T, ch <-chan Message, d time.Duration) Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(d):
		t.Fatal("message never arrived")
		return Message{}
	}
}

// TestFaultTCPRequeueRecoversConnLoss kills the pooled outbound connection
// under the sender's feet: the next write fails, the broken connection is
// evicted, and the failed write cycle re-queues toward a fresh connection,
// which redials and delivers. The message survives a real network fault with
// no drop recorded.
func TestFaultTCPRequeueRecoversConnLoss(t *testing.T) {
	a, b := tcpPair(t)
	bIn := sinkInbox(t, b)

	first := Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: 1, Payload: bitp{}}
	if err := a.Send(first, 0); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, bIn(1), 5*time.Second) // connection now pooled
	// Acked too: a break counts whatever it leaves unacked as lost.
	if !pollUntil(5*time.Second, func() bool { return allAcked(a) }) {
		t.Fatal("first send never acked")
	}

	// Sever the pooled connection out from under the transport.
	a.connMu.Lock()
	cs := a.outs[b.Addr().String()]
	a.connMu.Unlock()
	if cs == nil {
		t.Fatal("no pooled connection after first delivery")
	}
	cs.c.Close()

	second := Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: 2, Payload: bitp{}}
	if err := a.Send(second, 0); err != nil {
		t.Fatal(err)
	}
	got := recvWithin(t, bIn(1), 5*time.Second)
	if got.SentTick != 2 {
		t.Errorf("unexpected arrival %+v", got)
	}
	if a.Dropped() != 0 {
		t.Errorf("Dropped = %d after successful recovery", a.Dropped())
	}
}

// TestFaultTCPGiveUpCountsDrop sends to a peer that never exists: the dial
// gives up, and the message queued behind it must surface in Dropped() —
// every drop path is a visible counter, never a silent loss.
func TestFaultTCPGiveUpCountsDrop(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Reserve-and-release a port so nothing listens there.
	probe, err := NewTCPTransport("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	dead := probe.Addr().String()
	probe.Close()

	a.SetPeers(map[graph.NodeID]string{1: dead})
	a.dialTimeout = 50 * time.Millisecond
	if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, Payload: bitp{}}, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Dropped() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := a.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d after give-up, want 1", got)
	}
	if rep := a.Faults(); rep.TransportDrops != 1 {
		t.Errorf("FaultReport.TransportDrops = %d, want 1", rep.TransportDrops)
	}
}

// TestFaultTCPAckClearsPending checks the happy path of delivery: once the
// ack returns, nothing is left unacked and no copy arrives twice.
func TestFaultTCPAckClearsPending(t *testing.T) {
	a, b := tcpPair(t)
	bIn := sinkInbox(t, b)
	if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 2, SentTick: 3, Payload: bitp{}}, 0); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, bIn(1), 5*time.Second)

	if !pollUntil(3*time.Second, func() bool { return allAcked(a) }) {
		t.Fatalf("send still unacked after ack: %d queued or held, %d unacked", a.queueDepth(), a.unackedCount())
	}
	time.Sleep(150 * time.Millisecond)
	select {
	case m := <-bIn(1):
		t.Errorf("a second copy arrived after a clean ack: %+v", m)
	default:
	}
	if a.Dropped() != 0 {
		t.Errorf("Dropped = %d on the happy path", a.Dropped())
	}
}

// TestFaultTCPCloseCountsPendingTimers checks Close-time accounting: a
// message still queued behind a dial that keeps failing lands in Dropped(),
// however long its delay.
func TestFaultTCPCloseCountsPendingTimers(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeers(map[graph.NodeID]string{1: "127.0.0.1:1"})
	// An hour out, toward a port nothing listens on: queued at Close.
	if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, Payload: bitp{}}, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := a.Dropped(); got != 1 {
		t.Errorf("Dropped = %d after Close with one armed delivery, want 1", got)
	}
	if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, Payload: bitp{}}, 0); err == nil {
		t.Error("Send after Close succeeded")
	}
}
