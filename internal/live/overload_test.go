package live

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gossip/internal/graph"
)

// pollUntil spins until cond holds or the deadline passes; reports success.
func pollUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// quietListener accepts connections and discards everything it reads — a
// peer that takes frames but never acks, so written messages stay unacked.
// It counts accepted connections for redial assertions.
func quietListener(t testing.TB) (addr string, accepts *atomic.Int64, closeAll func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts = new(atomic.Int64)
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conns = append(conns, c)
			go io.Copy(io.Discard, c)
		}
	}()
	return ln.Addr().String(), accepts, func() {
		ln.Close()
		<-done
		for _, c := range conns {
			c.Close()
		}
	}
}

// overloadPair builds a transport hosting node 0 whose peer 1 is a quiet
// listener and whose writer is parked behind an hour-long flush window, so
// frames pile up in the writer queue deterministically.
func overloadPair(t *testing.T) (*TCPTransport, func()) {
	t.Helper()
	addr, _, closeLn := quietListener(t)
	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		closeLn()
		t.Fatal(err)
	}
	tr.SetPeers(map[graph.NodeID]string{1: addr})
	tr.SetFlushWindow(time.Hour) // park the writer: nothing reaches the wire
	return tr, func() { tr.Close(); closeLn() }
}

func testMsg(to graph.NodeID, kind MsgKind, tick int) Message {
	return Message{Kind: kind, From: 0, To: to, EdgeID: 1, Latency: 1,
		SentTick: tick, Payload: bitp{informed: true}}
}

// TestOverloadQueueShedOldest: past the writer-queue cap, gossip newcomers
// shed the oldest queued gossip frame — a terminal, counted loss.
func TestOverloadQueueShedOldest(t *testing.T) {
	tr, cleanup := overloadPair(t)
	defer cleanup()
	tr.SetOverloadLimits(4)

	const sends = 20
	for i := 0; i < sends; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !pollUntil(5*time.Second, func() bool {
		return tr.Overload().ShedQueue == sends-4 && tr.queueDepth() == 4
	}) {
		t.Fatalf("ShedQueue = %d, queueDepth = %d; want %d shed, 4 queued",
			tr.Overload().ShedQueue, tr.queueDepth(), sends-4)
	}
	if got := tr.Dropped(); got < sends-4 {
		t.Fatalf("Dropped() = %d, want >= %d (sheds are drops)", got, sends-4)
	}
	if ov := tr.Faults().Overload; ov.ShedQueue != sends-4 {
		t.Fatalf("Faults().Overload.ShedQueue = %d, want %d", ov.ShedQueue, sends-4)
	}
}

// TestOverloadMemberBackpressure: membership frames are never shed — they
// preempt gossip from a full queue, and when the queue is all membership
// traffic a membership newcomer blocks (bounded) instead of dropping.
func TestOverloadMemberBackpressure(t *testing.T) {
	tr, cleanup := overloadPair(t)
	defer cleanup()
	tr.SetOverloadLimits(2)

	// Fill the queue with membership frames.
	for i := 0; i < 2; i++ {
		if err := tr.Send(testMsg(1, MsgMember, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !pollUntil(5*time.Second, func() bool { return tr.queueDepth() == 2 }) {
		t.Fatalf("queueDepth = %d, want 2", tr.queueDepth())
	}

	// A gossip newcomer cannot displace membership: it is shed itself.
	if err := tr.Send(testMsg(1, MsgRequest, 100), 0); err != nil {
		t.Fatal(err)
	}
	if !pollUntil(5*time.Second, func() bool { return tr.Overload().ShedQueue == 1 }) {
		t.Fatalf("ShedQueue = %d, want 1 (gossip newcomer shed)", tr.Overload().ShedQueue)
	}

	// A membership newcomer applies backpressure: it blocks rather than drop.
	sent := make(chan error, 1)
	go func() { sent <- tr.Send(testMsg(1, MsgMember, 101), 0) }()
	if !pollUntil(5*time.Second, func() bool { return tr.Overload().MemberBackpressured == 1 }) {
		t.Fatalf("MemberBackpressured = %d, want 1", tr.Overload().MemberBackpressured)
	}
	if tr.Overload().ShedQueue != 1 {
		t.Fatalf("membership frame was shed: ShedQueue = %d", tr.Overload().ShedQueue)
	}
	// Close rescues the blocked enqueuer.
	cleanup()
	if err := <-sent; err != nil && err != ErrTransportClosed {
		t.Fatalf("backpressured send returned %v", err)
	}
}

// deadAddrTransport returns a TCP transport whose node 1 is routed to a
// port with nothing listening, giving up a dial after dialTimeout.
func deadAddrTransport(t *testing.T, dialTimeout time.Duration) (*TCPTransport, string) {
	t.Helper()
	// A port with nothing listening: grab one, then free it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	tr.SetPeers(map[graph.NodeID]string{1: deadAddr})
	tr.dialTimeout = dialTimeout
	return tr, deadAddr
}

// TestTCPDialFailuresRedial: consecutive sends toward an unreachable address
// are each a counted give-up loss, and none is refused: every one redials on
// a fresh connection, and nothing is left unacked.
func TestTCPDialFailuresRedial(t *testing.T) {
	// Long enough to see each send's connection in the pool before it gives up.
	tr, deadAddr := deadAddrTransport(t, 200*time.Millisecond)

	var prev *connState
	for i := 0; i < 3; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
		cs := pooled(tr, deadAddr)
		if cs == nil || cs == prev {
			t.Fatalf("send %d did not redial on a fresh connection", i)
		}
		prev = cs
		if !pollUntil(5*time.Second, func() bool { return tr.Dropped() == int64(i+1) }) {
			t.Fatalf("send %d: Dropped = %d, want %d", i, tr.Dropped(), i+1)
		}
		if n := tr.dropsGiveUp.Load(); n != int64(i+1) {
			t.Fatalf("send %d: dropsGiveUp = %d, want %d", i, n, i+1)
		}
	}
	if n := tr.dropsDown.Load(); n != 0 {
		t.Fatalf("dropsDown = %d without a verdict, want 0", n)
	}
	if !pollUntil(5*time.Second, func() bool { return tr.unackedCount() == 0 }) {
		t.Fatalf("unacked = %d after the give-ups, want 0", tr.unackedCount())
	}
}

// TestTCPDialGiveUpCountsBurst: a burst of sends toward an unreachable
// address queues behind one connection's dial, and its give-up counts every
// one of them as a loss. The next send redials on a fresh connection and is
// counted at that dial's own give-up.
func TestTCPDialGiveUpCountsBurst(t *testing.T) {
	// The whole burst queues behind the first dial.
	tr, deadAddr := deadAddrTransport(t, 200*time.Millisecond)

	const burst = 8
	for i := 0; i < burst; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	first := pooled(tr, deadAddr)
	if first == nil {
		t.Fatal("no connection dialing after the burst")
	}
	if n := tr.queueDepth(); n != burst {
		t.Fatalf("queueDepth = %d behind the dial, want %d", n, burst)
	}
	if !pollUntil(5*time.Second, func() bool { return tr.Dropped() == burst }) {
		t.Fatalf("Dropped = %d, want %d given up", tr.Dropped(), burst)
	}
	if n := tr.dropsGiveUp.Load(); n != burst {
		t.Fatalf("dropsGiveUp = %d, want %d", n, burst)
	}
	// Nothing reached the wire, so nothing is left unacked.
	if n := tr.unackedCount(); n != 0 {
		t.Fatalf("unacked = %d after the give-up, want 0", n)
	}

	// The next send is not refused: it redials and gives up on its own.
	if err := tr.Send(testMsg(1, MsgRequest, burst), 0); err != nil {
		t.Fatal(err)
	}
	if again := pooled(tr, deadAddr); again == nil || again == first {
		t.Fatal("the send after the give-up did not redial on a fresh connection")
	}
	if !pollUntil(5*time.Second, func() bool { return tr.dropsGiveUp.Load() == burst+1 }) {
		t.Fatalf("dropsGiveUp = %d after the redial, want %d", tr.dropsGiveUp.Load(), burst+1)
	}
	if n := tr.Dropped(); n != burst+1 {
		t.Fatalf("Dropped = %d, want %d", n, burst+1)
	}
}

// TestTCPDialGivesUpOnPeerDown: a dial already under way when membership
// declares its address dead stops at its next failed attempt instead of
// retrying until dialTimeout, and its queue is a counted give-up loss.
func TestTCPDialGivesUpOnPeerDown(t *testing.T) {
	// A dial that would otherwise retry far past the test's deadline.
	tr, deadAddr := deadAddrTransport(t, 30*time.Second)

	const burst = 8
	for i := 0; i < burst; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if pooled(tr, deadAddr) == nil {
		t.Fatal("no connection dialing after the burst")
	}
	tr.PeerDown(1)
	if !pollUntil(time.Second, func() bool { return tr.dropsGiveUp.Load() == burst }) {
		t.Fatalf("dropsGiveUp = %d a second after the verdict, want %d", tr.dropsGiveUp.Load(), burst)
	}
	if cs := pooled(tr, deadAddr); cs != nil {
		t.Fatal("the given-up connection is still pooled")
	}
	if n := tr.Dropped(); n != burst {
		t.Fatalf("Dropped = %d, want %d", n, burst)
	}
}

// TestTCPPeerDownRefusesPeerUpHeals: a membership Dead verdict for the only
// node at an address makes the transport refuse sends there, each one a
// counted loss, without closing the pooled connection; a membership packet
// still goes, since a recovered peer learns it must refute only from our
// reply; an Alive verdict re-admits the address.
func TestTCPPeerDownRefusesPeerUpHeals(t *testing.T) {
	src, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	dstIn := sinkInbox(t, dst)
	addr := dst.Addr().String()
	src.SetPeers(map[graph.NodeID]string{1: addr})

	if err := src.Send(testMsg(1, MsgRequest, 1), 0); err != nil {
		t.Fatal(err)
	}
	<-dstIn(1)
	cs := pooled(src, addr)
	// The writer may still hold tick 1 for a moment after it arrived.
	if !pollUntil(5*time.Second, func() bool { return allAcked(src) }) {
		t.Fatal("tick 1 still unacked")
	}

	src.PeerDown(1)
	if !routeTo(src, addr).down.Load() {
		t.Fatal("route not down after PeerDown of its only node")
	}
	before := src.Dropped()
	if err := src.Send(testMsg(1, MsgRequest, 2), 0); err != nil {
		t.Fatal(err)
	}
	// The refusal is counted inside Send, before anything is queued.
	if got := src.Dropped(); got != before+1 {
		t.Fatalf("Dropped = %d after a refused send, want %d", got, before+1)
	}
	if n := src.queueDepth(); n != 0 {
		t.Fatalf("queueDepth = %d after a refused send, want 0", n)
	}
	if pooled(src, addr) != cs {
		t.Fatal("PeerDown closed the pooled connection")
	}
	if err := src.Send(testMsg(1, MsgMember, 4), 0); err != nil {
		t.Fatal(err)
	}
	if got := src.Dropped(); got != before+1 {
		t.Fatalf("Dropped = %d after a membership send to a down address, want %d", got, before+1)
	}
	// The stream delivers in order, so the membership packet arriving next
	// proves the refused tick 2 never reached the wire.
	select {
	case msg := <-dstIn(1):
		if msg.Kind != MsgMember || msg.SentTick != 4 {
			t.Fatalf("delivered kind %d tick %d, want the membership packet at tick 4", msg.Kind, msg.SentTick)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a membership packet to a down address was not delivered")
	}

	src.PeerUp(1)
	if routeTo(src, addr).down.Load() {
		t.Fatal("route still down after PeerUp")
	}
	if err := src.Send(testMsg(1, MsgRequest, 3), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-dstIn(1):
		if msg.SentTick != 3 {
			t.Fatalf("delivered tick %d, want 3", msg.SentTick)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PeerUp did not re-admit sends")
	}
}
