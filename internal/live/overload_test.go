package live

import (
	"bufio"
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
	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 64)
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

// TestTCPBreakerTripsOnDialFailures: consecutive unreachable-peer failures
// trip the breaker; once open, sends are refused without spending a dial.
func TestTCPBreakerTripsOnDialFailures(t *testing.T) {
	// A port with nothing listening: grab one, then free it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.SetPeers(map[graph.NodeID]string{1: deadAddr})
	tr.dialTimeout = time.Millisecond
	tr.breakerN = 2            // trip after 2 failures,
	tr.breakerWait = time.Hour // and stay open

	// An undialable first transmission is a terminal, counted loss and one
	// failure toward the breaker.
	for i := 0; i < 2; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
		if !pollUntil(5*time.Second, func() bool { return tr.Dropped() == int64(i+1) }) {
			t.Fatalf("send %d: Dropped = %d, want %d", i, tr.Dropped(), i+1)
		}
	}
	if !pollUntil(5*time.Second, func() bool { return tr.Overload().BreakerOpens >= 1 }) {
		t.Fatalf("breaker never opened: %+v", tr.Overload())
	}
	// Nothing reached the wire, so nothing is left unacked.
	if !pollUntil(5*time.Second, func() bool { return tr.unackedCount() == 0 }) {
		t.Fatalf("unacked = %d after trip, want 0", tr.unackedCount())
	}
	// While open, admission is refused outright.
	before := tr.Overload().BreakerDrops
	if err := tr.Send(testMsg(1, MsgRequest, 50), 0); err != nil {
		t.Fatal(err)
	}
	if !pollUntil(5*time.Second, func() bool { return tr.Overload().BreakerDrops > before }) {
		t.Fatalf("open breaker admitted a send: %+v", tr.Overload())
	}
}

// TestTCPBreakerOpensAtFirstDialGiveUp: a burst queued behind one dial that
// gives up is one breaker failure per message, as if each had dialed for
// itself, so at the default threshold the first give-up opens the breaker
// instead of one give-up per dialTimeout.
func TestTCPBreakerOpensAtFirstDialGiveUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.SetPeers(map[graph.NodeID]string{1: deadAddr})
	tr.dialTimeout = 200 * time.Millisecond // the whole burst queues behind the first dial
	tr.breakerWait = time.Hour

	for i := 0; i < DefaultBreakerThreshold; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !pollUntil(5*time.Second, func() bool { return tr.Dropped() == DefaultBreakerThreshold }) {
		t.Fatalf("Dropped = %d, want %d given up", tr.Dropped(), DefaultBreakerThreshold)
	}
	if got := tr.Overload().BreakerOpens; got != 1 {
		t.Fatalf("BreakerOpens = %d after one give-up of %d queued messages, want 1", got, DefaultBreakerThreshold)
	}
}

// TestTCPPeerDownTripsBreakerPeerUpHeals: a membership Dead verdict for the
// only node at an address opens its breaker; an Alive verdict re-admits it.
func TestTCPPeerDownTripsBreakerPeerUpHeals(t *testing.T) {
	src, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	src.SetPeers(map[graph.NodeID]string{1: dst.Addr().String()})

	if err := src.Send(testMsg(1, MsgRequest, 1), 0); err != nil {
		t.Fatal(err)
	}
	<-dst.Recv(1)

	src.PeerDown(1)
	if ov := src.Overload(); ov.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d after PeerDown, want 1", ov.BreakerOpens)
	}
	before := src.Overload().BreakerDrops
	if err := src.Send(testMsg(1, MsgRequest, 2), 0); err != nil {
		t.Fatal(err)
	}
	if !pollUntil(5*time.Second, func() bool { return src.Overload().BreakerDrops > before }) {
		t.Fatalf("dead peer's breaker admitted a send")
	}

	src.PeerUp(1)
	if err := src.Send(testMsg(1, MsgRequest, 3), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-dst.Recv(1):
		if msg.SentTick != 3 {
			t.Fatalf("delivered tick %d, want 3", msg.SentTick)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PeerUp did not re-admit sends")
	}
}

// TestTCPBreakerHalfOpenProbeExpires: a half-open probe to a peer that never
// acks does not strand the breaker. Once the probe has gone one cooldown
// unacked, the next send is admitted as a new probe, and an ack from the
// peer closes the breaker.
func TestTCPBreakerHalfOpenProbeExpires(t *testing.T) {
	const cooldown = 100 * time.Millisecond
	var acking atomic.Bool
	addr, stop := quietFabricPeer(t, "tcp", func(c net.Conn) {
		defer c.Close()
		var dec wireDec
		br := bufio.NewReader(c)
		decoded := uint64(0)
		for {
			_, msgs, _, err := dec.readFrameMulti(br)
			if err != nil {
				return
			}
			decoded += uint64(len(msgs))
			if acking.Load() {
				c.Write(new(wireEnc).appendFrame(nil, nil, decoded))
			}
		}
	})
	defer stop()
	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.SetPeers(map[graph.NodeID]string{1: addr})
	tr.breakerWait = cooldown
	ps := tr.peer(addr)

	tr.PeerDown(1) // the only node at addr: the breaker opens
	if ps.state() != breakerOpen {
		t.Fatalf("state = %v after PeerDown, want open", ps.state())
	}
	time.Sleep(cooldown)
	refused := func() int64 { return tr.Overload().BreakerDrops }

	// The first send after the cooldown is the probe; it is written and
	// never acked, and the send right behind it is refused.
	if err := tr.Send(testMsg(1, MsgRequest, 1), 0); err != nil {
		t.Fatal(err)
	}
	if !pollUntil(5*time.Second, func() bool { return tr.unackedCount() == 1 }) {
		t.Fatalf("probe never written: unacked = %d", tr.unackedCount())
	}
	if err := tr.Send(testMsg(1, MsgRequest, 2), 0); err != nil {
		t.Fatal(err)
	}
	if refused() != 1 || ps.state() != breakerHalfOpen {
		t.Fatalf("second send during the probe: refused %d, state %v; want 1, half-open", refused(), ps.state())
	}

	// One cooldown later the silent probe has failed: the next send is the
	// new probe, and the peer's ack for it closes the breaker.
	time.Sleep(cooldown)
	acking.Store(true)
	if err := tr.Send(testMsg(1, MsgRequest, 3), 0); err != nil {
		t.Fatal(err)
	}
	if refused() != 1 {
		t.Fatalf("new probe refused: %d refusals", refused())
	}
	if !pollUntil(5*time.Second, func() bool { return ps.state() == breakerClosed }) {
		t.Fatalf("state = %v after the probe was acked, want closed", ps.state())
	}
	if n := tr.unackedCount(); n != 0 {
		t.Fatalf("unacked = %d after the cumulative ack, want 0", n)
	}
}

// TestBreakerStateMachine drives peerState directly through closed → open →
// half-open → closed, a half-open probe that expires unacked, and the
// half-open → open relapse.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	cooldown := time.Second
	ps := &peerState{}

	if !ps.allow(3, cooldown, now) {
		t.Fatal("closed breaker refused a send")
	}
	if ps.failure(3, cooldown, now, 1) {
		t.Fatal("tripped below threshold")
	}
	if ps.failure(3, cooldown, now, 1) {
		t.Fatal("tripped below threshold")
	}
	if !ps.failure(3, cooldown, now, 1) {
		t.Fatal("did not trip at threshold")
	}
	if ps.state() != breakerOpen {
		t.Fatalf("state = %v, want open", ps.state())
	}
	if ps.allow(3, cooldown, now.Add(cooldown/2)) {
		t.Fatal("open breaker admitted a send inside cooldown")
	}

	// Cooldown elapsed: exactly one probe passes.
	probeAt := now.Add(2 * cooldown)
	if !ps.allow(3, cooldown, probeAt) {
		t.Fatal("half-open breaker refused the probe")
	}
	if ps.state() != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", ps.state())
	}
	if ps.allow(3, cooldown, probeAt) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// A probe that goes one cooldown without an ack has failed: the next
	// send is admitted as the new probe, and only one.
	if ps.allow(3, cooldown, probeAt.Add(cooldown/2)) {
		t.Fatal("half-open breaker admitted a send while its probe was young")
	}
	probeAt = probeAt.Add(cooldown)
	if !ps.allow(3, cooldown, probeAt) {
		t.Fatal("half-open breaker refused a new probe after the last went a cooldown unacked")
	}
	if ps.state() != breakerHalfOpen {
		t.Fatalf("state = %v after an unacked probe, want half-open", ps.state())
	}
	if ps.allow(3, cooldown, probeAt) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe succeeds: closed, failure count cleared.
	ps.success()
	if ps.state() != breakerClosed {
		t.Fatalf("state = %v after probe success, want closed", ps.state())
	}
	if !ps.allow(3, cooldown, probeAt) {
		t.Fatal("healed breaker refused a send")
	}

	// Trip again; this time the probe fails → straight back to open.
	for i := 0; i < 3; i++ {
		ps.failure(3, cooldown, probeAt, 1)
	}
	probe2 := probeAt.Add(2 * cooldown)
	if !ps.allow(3, cooldown, probe2) {
		t.Fatal("second half-open probe refused")
	}
	// The relapse is not a fresh trip (it was counted when the breaker first
	// opened), but it must swing the state back to open.
	if ps.failure(3, cooldown, probe2, 1) {
		t.Fatal("half-open relapse reported a fresh trip")
	}
	if ps.state() != breakerOpen {
		t.Fatalf("state = %v after failed probe, want open", ps.state())
	}
}
