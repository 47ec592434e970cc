package live

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"slices"
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
func overloadPair(t testing.TB) (*TCPTransport, func()) {
	t.Helper()
	addr, _, closeLn := quietListener(t)
	tr, err := parkedSender(addr)
	if err != nil {
		closeLn()
		t.Fatal(err)
	}
	return tr, func() { tr.Close(); closeLn() }
}

// parkedSender returns a transport hosting node 0 that routes node 1 to
// addr, its writer parked behind an hour-long flush window.
func parkedSender(addr string) (*TCPTransport, error) {
	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		return nil, err
	}
	tr.SetPeers(map[graph.NodeID]string{1: addr})
	tr.SetFlushWindow(time.Hour) // park the writer: nothing reaches the wire
	return tr, nil
}

// queuedTicks lists the SentTick of every frame in the writer queue toward
// node 1, head first.
func queuedTicks(tr *TCPTransport) []int {
	cs := tr.routes.Load().lookup(1).out.Load()
	cs.qmu.Lock()
	defer cs.qmu.Unlock()
	var ticks []int
	for c := cs.qHead; c != nil; c = c.next {
		for _, w := range c.msgs[:c.n] {
			ticks = append(ticks, w.SentTick)
		}
	}
	return ticks
}

// tickRange returns the ticks [from, to).
func tickRange(from, to int) []int {
	ticks := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		ticks = append(ticks, i)
	}
	return ticks
}

func testMsg(to graph.NodeID, kind MsgKind, tick int) Message {
	return Message{Kind: kind, From: 0, To: to, EdgeID: 1, Latency: 1,
		SentTick: tick, Payload: bitp{informed: true}}
}

// TestOverloadCongestionHoldsNotSheds: a parked writer's queue that grows
// past one super-frame marks its transport congested instead of shedding:
// every frame stays queued and nothing counts as lost. The writer taking the
// queue clears the mark, and so does the connection dying.
func TestOverloadCongestionHoldsNotSheds(t *testing.T) {
	tr, cleanup := overloadPair(t)
	defer cleanup()

	tick := 0
	fill := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if err := tr.Send(testMsg(1, MsgRequest, tick), 0); err != nil {
				t.Fatal(err)
			}
			tick++
		}
	}
	fill(chunkFrames)
	if tr.congested() {
		t.Fatalf("congested at %d queued frames, one full super-frame", chunkFrames)
	}
	fill(1)
	if !tr.congested() {
		t.Fatalf("not congested at %d queued frames", chunkFrames+1)
	}
	if got := queuedTicks(tr); !slices.Equal(got, tickRange(0, chunkFrames+1)) {
		t.Fatalf("queued %d frames, want ticks 0..%d in order", len(got), chunkFrames)
	}
	if shed, dropped := tr.Overload().Shed(), tr.Dropped(); shed != 0 || dropped != 0 {
		t.Fatalf("Shed() = %d, Dropped() = %d; want nothing lost", shed, dropped)
	}

	cs := tr.routes.Load().lookup(1).out.Load()
	chain := cs.take()
	if tr.congested() {
		t.Fatal("still congested after the writer took the queue")
	}
	cs.release(len(flattenChunks(chain)))

	fill(chunkFrames + 1)
	if !tr.congested() {
		t.Fatal("not congested after refilling past one super-frame")
	}
	if data := cs.markDead(); len(data) != chunkFrames+1 {
		t.Fatalf("markDead returned %d frames, want %d", len(data), chunkFrames+1)
	}
	if tr.congested() {
		t.Fatal("still congested after the connection died")
	}
}

// TestOverloadRequeueAcrossChunks: a queue spanning several chunks survives
// a broken connection whole. The parked queue re-queues toward a fresh
// connection, flattened across its chunks, and every frame reaches a real
// peer once, in order, with nothing counted lost.
func TestOverloadRequeueAcrossChunks(t *testing.T) {
	const sends = 2*chunkFrames + 500 // three chunks, the last one partial
	peer, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	in := sinkInbox(t, peer)(1)
	addr := peer.Addr().String()
	tr, err := parkedSender(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	for i := 0; i < sends; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := queuedTicks(tr); !slices.Equal(got, tickRange(0, sends)) {
		t.Fatalf("queued %d frames, want ticks 0..%d in order", len(got), sends-1)
	}

	// Un-park: sever the parked connection once its dial has attached it.
	// Its read loop re-queues the queue toward a fresh connection, whose
	// writer runs with no flush window.
	cs := pooled(tr, addr)
	var c net.Conn
	if !pollUntil(5*time.Second, func() bool {
		tr.connMu.Lock()
		defer tr.connMu.Unlock()
		c = cs.c
		return c != nil
	}) {
		t.Fatal("the parked connection never dialed")
	}
	tr.SetFlushWindow(0)
	c.Close()
	for want := 0; want < sends; want++ {
		if m := recvWithin(t, in, 10*time.Second); m.SentTick != want {
			t.Fatalf("delivered tick %d, want %d", m.SentTick, want)
		}
	}
	if !pollUntil(5*time.Second, func() bool { return allAcked(tr) }) {
		t.Fatal("the re-queued frames were never acked")
	}
	select {
	case m := <-in:
		t.Fatalf("delivered tick %d past the queue", m.SentTick)
	default:
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	if tr.congested() {
		t.Fatal("still congested once every frame was written")
	}
}

// TestFlattenChunksReadsLiveEntries: teardown and re-queue take every
// chunk's queued entries, msgs[:n], head first.
func TestFlattenChunksReadsLiveEntries(t *testing.T) {
	head, mid, tail := getChunk(), getChunk(), getChunk()
	head.next, mid.next = mid, tail
	tick := 0
	for _, c := range []*msgChunk{head, mid, tail} {
		c.n = 3 + tick/2
		for i := 0; i < c.n; i++ {
			c.msgs[i].SentTick = tick
			tick++
		}
	}
	tail.msgs[tail.n].SentTick = -1 // a stale slot past n
	var got []int
	for _, w := range flattenChunks(head) {
		got = append(got, w.SentTick)
	}
	if want := tickRange(0, tick); !slices.Equal(got, want) {
		t.Fatalf("flattened ticks %v, want %v", got, want)
	}
}

// TestWriteCycleReadsLiveEntries: the writer encodes and counts a chunk's
// queued entries, msgs[:n], and never a stale slot past them.
func TestWriteCycleReadsLiveEntries(t *testing.T) {
	st := &StreamTransport{}
	var out bytes.Buffer
	cs := &connState{t: st, bw: bufio.NewWriter(&out)}
	head := getChunk()
	for i := 0; i < 10; i++ {
		head.msgs[i].SentTick = i
	}
	head.n = 4
	n, err := st.writeCycle(cs, head)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || st.msgsOut.Load() != 4 {
		t.Fatalf("writeCycle carried %d, msgsOut = %d; want 4 each", n, st.msgsOut.Load())
	}
	var dec wireDec
	br := bufio.NewReader(&out)
	var got []int
	for {
		_, msgs, err := dec.readFrameMulti(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range msgs {
			got = append(got, w.SentTick)
		}
	}
	if want := tickRange(0, 4); !slices.Equal(got, want) {
		t.Fatalf("wrote ticks %v, want %v", got, want)
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
