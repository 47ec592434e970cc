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
// peer that takes frames but never acks, so pend entries stay in flight.
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
// frames pile up in the writer queue and pend shards deterministically.
func overloadPair(t *testing.T) (*TCPTransport, func()) {
	t.Helper()
	addr, _, closeLn := quietListener(t)
	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 64)
	if err != nil {
		closeLn()
		t.Fatal(err)
	}
	tr.SetPeers(map[graph.NodeID]string{1: addr})
	tr.SetFlushWindow(time.Hour)   // park the writer: nothing reaches the wire
	tr.SetRetransmit(time.Hour, 4) // and nothing retransmits mid-test
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
	tr.SetOverloadLimits(4, -1)

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
	tr.SetOverloadLimits(2, -1)

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

// TestOverloadPendShed: the pend cap sheds the oldest in-flight gossip entry
// per shard, and every message of a shed super-frame is a counted loss —
// whatever the writer's framing, shed + still pending accounts for every send.
func TestOverloadPendShed(t *testing.T) {
	tr, cleanup := overloadPair(t)
	defer cleanup()
	tr.SetFlushWindow(0)                 // un-park the writer: pend entries register at write time
	tr.SetOverloadLimits(-1, pendShards) // one pending super-frame per shard

	// Waves, each registered before the next is sent: every wave ends a
	// super-frame, and those frames' keys (the wave's last seq, a multiple of
	// the wave size) land on a quarter of the shards — so sheds are certain
	// however the writer splits a wave into frames.
	const wave, sends = 4, 4 * pendShards
	for sent := 0; sent < sends; {
		for i := 0; i < wave; i++ {
			if err := tr.Send(testMsg(1, MsgRequest, sent), 0); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if !pollUntil(5*time.Second, func() bool {
			return int(tr.Overload().ShedPend)+tr.pendingCount() == sent
		}) {
			t.Fatalf("ShedPend = %d + pendingCount = %d, want %d sent",
				tr.Overload().ShedPend, tr.pendingCount(), sent)
		}
	}
	if tr.Overload().ShedPend == 0 {
		t.Fatal("ShedPend = 0: the pend cap never engaged")
	}
	entries := 0
	for i := range tr.pend {
		tr.pend[i].mu.Lock()
		entries += len(tr.pend[i].m)
		tr.pend[i].mu.Unlock()
	}
	if entries > pendShards {
		t.Fatalf("%d pend entries, cap is %d", entries, pendShards)
	}
}

// TestTCPDeadPeerDropsInFlight: a PeerDown verdict flushes the dead node's
// in-flight messages even with circuit breakers disabled — the dead-peer
// drop is a membership feature, not a breaker feature.
func TestTCPDeadPeerDropsInFlight(t *testing.T) {
	tr, cleanup := overloadPair(t)
	defer cleanup()
	tr.SetFlushWindow(0) // un-park the writer: pend entries register at write time
	tr.breakerN = -1     // breakers off: the flush must still happen

	const sends = 8
	for i := 0; i < sends; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !pollUntil(5*time.Second, func() bool { return tr.pendingCount() == sends }) {
		t.Fatalf("pendingCount = %d, want %d", tr.pendingCount(), sends)
	}

	tr.PeerDown(1)
	ov := tr.Overload()
	if ov.DroppedDeadPeer != sends {
		t.Fatalf("DroppedDeadPeer = %d, want %d", ov.DroppedDeadPeer, sends)
	}
	if ov.BreakerOpens != 0 || ov.BreakerDrops != 0 {
		t.Fatalf("breaker engaged while disabled: %+v", ov)
	}
	if n := tr.pendingCount(); n != 0 {
		t.Fatalf("pendingCount = %d after PeerDown, want 0", n)
	}
	if got := tr.Dropped(); got < sends {
		t.Fatalf("Dropped() = %d, want >= %d", got, sends)
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
	tr.SetRetransmit(time.Hour, 4) // failures come from dials, not give-ups
	tr.breakerN = 2                // trip after 2 failures,
	tr.breakerWait = time.Hour     // and stay open

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
	// Tripping flushed the unreachable peer's pend entries.
	if !pollUntil(5*time.Second, func() bool { return tr.pendingCount() == 0 }) {
		t.Fatalf("pendingCount = %d after trip, want 0", tr.pendingCount())
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
	src.SetRetransmit(time.Hour, 4)
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

// TestBreakerStateMachine drives peerState directly through closed → open →
// half-open → closed, and the half-open → open relapse.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	cooldown := time.Second
	ps := &peerState{}

	if !ps.allow(3, now) {
		t.Fatal("closed breaker refused a send")
	}
	if ps.failure(3, cooldown, now) {
		t.Fatal("tripped below threshold")
	}
	if ps.failure(3, cooldown, now) {
		t.Fatal("tripped below threshold")
	}
	if !ps.failure(3, cooldown, now) {
		t.Fatal("did not trip at threshold")
	}
	if ps.state() != breakerOpen {
		t.Fatalf("state = %v, want open", ps.state())
	}
	if ps.allow(3, now.Add(cooldown/2)) {
		t.Fatal("open breaker admitted a send inside cooldown")
	}

	// Cooldown elapsed: exactly one probe passes.
	probeAt := now.Add(2 * cooldown)
	if !ps.allow(3, probeAt) {
		t.Fatal("half-open breaker refused the probe")
	}
	if ps.state() != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", ps.state())
	}
	if ps.allow(3, probeAt) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// The probe's own retransmission is probe traffic, not a new send.
	if !ps.allowRetry(3, probeAt) {
		t.Fatal("half-open breaker refused the probe's retransmission")
	}

	// Probe succeeds: closed, failure count cleared.
	ps.success()
	if ps.state() != breakerClosed {
		t.Fatalf("state = %v after probe success, want closed", ps.state())
	}
	if !ps.allow(3, probeAt) {
		t.Fatal("healed breaker refused a send")
	}

	// Trip again; this time the probe fails → straight back to open.
	for i := 0; i < 3; i++ {
		ps.failure(3, cooldown, probeAt)
	}
	probe2 := probeAt.Add(2 * cooldown)
	if !ps.allow(3, probe2) {
		t.Fatal("second half-open probe refused")
	}
	// The relapse is not a fresh trip (it was counted when the breaker first
	// opened), but it must swing the state back to open.
	if ps.failure(3, cooldown, probe2) {
		t.Fatal("half-open relapse reported a fresh trip")
	}
	if ps.state() != breakerOpen {
		t.Fatalf("state = %v after failed probe, want open", ps.state())
	}
}

// TestAdaptiveRTOEstimator checks the Jacobson/Karn arithmetic and clamps.
func TestAdaptiveRTOEstimator(t *testing.T) {
	ps := &peerState{}
	fallback := time.Second
	if got := ps.rto(fallback, time.Millisecond, time.Minute); got != fallback {
		t.Fatalf("no-sample rto = %v, want fallback %v", got, fallback)
	}

	// First sample: srtt = rtt, rttvar = rtt/2 → RTO = rtt + 4·rttvar = 3·rtt.
	ps.observeRTT(10 * time.Millisecond)
	if got := ps.rto(fallback, time.Millisecond, time.Minute); got != 30*time.Millisecond {
		t.Fatalf("rto after first sample = %v, want 30ms", got)
	}
	// Second identical sample: rttvar decays to 3.75ms → RTO = 25ms.
	ps.observeRTT(10 * time.Millisecond)
	if got := ps.rto(fallback, time.Millisecond, time.Minute); got != 25*time.Millisecond {
		t.Fatalf("rto after second sample = %v, want 25ms", got)
	}

	// Clamps: a microsecond network floors at rtoMin, a dead-slow one at max.
	fast := &peerState{}
	fast.observeRTT(10 * time.Microsecond)
	if got := fast.rto(fallback, 50*time.Millisecond, time.Minute); got != 50*time.Millisecond {
		t.Fatalf("fast-path rto = %v, want floored to 50ms", got)
	}
	slow := &peerState{}
	slow.observeRTT(time.Hour)
	if got := slow.rto(fallback, time.Millisecond, time.Minute); got != time.Minute {
		t.Fatalf("slow-path rto = %v, want capped at 1m", got)
	}
}

// TestTCPAdaptiveRTOFromLiveTraffic: acked exchanges feed the estimator, so
// the effective RTO shrinks from the configured fallback toward wire RTT.
func TestTCPAdaptiveRTOFromLiveTraffic(t *testing.T) {
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
	addr := dst.Addr().String()
	src.SetPeers(map[graph.NodeID]string{1: addr})

	for i := 0; i < 4; i++ {
		if err := src.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
		<-dst.Recv(1)
	}
	if !pollUntil(5*time.Second, func() bool { return src.pendingCount() == 0 }) {
		t.Fatalf("acks never resolved: pendingCount = %d", src.pendingCount())
	}
	// A loopback RTT is far below a 10s fallback; the estimator must be live.
	if got := src.peer(addr).rto(10*time.Second, time.Millisecond, time.Hour); got >= time.Second {
		t.Fatalf("estimated rto = %v, want loopback-scale (estimator not fed)", got)
	}
}
