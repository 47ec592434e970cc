package live

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
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
		for _, w := range c.live() {
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

// TestOverloadShedYields: a send that sheds gives up its processor before
// it returns, so the writer it woke can drain the queue. On one processor a
// goroutine started just before such a send runs only if the send yields.
// A handful of sends are tried because the scheduler occasionally resumes
// the yielding goroutine first.
func TestOverloadShedYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr, cleanup := overloadPair(t)
	defer cleanup()
	tr.SetOverloadLimits(4)

	tick := 0
	send := func() {
		if err := tr.Send(testMsg(1, MsgRequest, tick), 0); err != nil {
			t.Fatal(err)
		}
		tick++
	}
	for tick < 4 {
		send()
	}
	if !pollUntil(5*time.Second, func() bool { return tr.queueDepth() == 4 }) {
		t.Fatalf("queueDepth = %d, want 4", tr.queueDepth())
	}
	yielded := false
	for i := 0; i < 8 && !yielded; i++ {
		var ran atomic.Bool
		done := make(chan struct{})
		go func() {
			ran.Store(true)
			close(done)
		}()
		send()
		yielded = ran.Load()
		<-done
	}
	if !yielded {
		t.Fatal("no shedding send yielded its processor")
	}
	if got := tr.Overload().ShedQueue; got == 0 {
		t.Fatal("no send was shed")
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

// TestOverloadShedAcrossChunks: with a cap wider than one queue chunk,
// shedding walks the head offset through whole chunks and recycles them:
// the survivors are exactly the newest frames, in order, and they reach a
// real peer in that order once the connection breaks and re-queues them.
// A membership frame at the head is never shed: the gossip behind it goes.
func TestOverloadShedAcrossChunks(t *testing.T) {
	const limit, sends = 1500, 5000 // the cap spans two chunks
	if limit <= chunkFrames {
		t.Fatalf("limit %d fits one chunk of %d frames", limit, chunkFrames)
	}

	t.Run("gossip", func(t *testing.T) {
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
		tr.SetOverloadLimits(limit)

		for i := 0; i < sends; i++ {
			if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
				t.Fatal(err)
			}
		}
		if shed, depth := tr.Overload().ShedQueue, tr.queueDepth(); shed != sends-limit || depth != limit {
			t.Fatalf("ShedQueue = %d, queueDepth = %d; want %d shed, %d queued", shed, depth, sends-limit, limit)
		}
		if got := queuedTicks(tr); !slices.Equal(got, tickRange(sends-limit, sends)) {
			t.Fatalf("queued %d frames, want ticks %d..%d: %v", len(got), sends-limit, sends-1, got)
		}

		// Un-park: sever the parked connection once its dial has attached
		// it. Its read loop re-queues the survivors toward a fresh
		// connection, whose writer runs with no flush window.
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
		for want := sends - limit; want < sends; want++ {
			if m := recvWithin(t, in, 10*time.Second); m.SentTick != want {
				t.Fatalf("delivered tick %d, want %d", m.SentTick, want)
			}
		}
		if !pollUntil(5*time.Second, func() bool { return allAcked(tr) }) {
			t.Fatal("the re-queued survivors were never acked")
		}
		select {
		case m := <-in:
			t.Fatalf("delivered tick %d past the survivors", m.SentTick)
		default:
		}
		if got := tr.Dropped(); got != sends-limit {
			t.Fatalf("Dropped = %d, want the %d shed", got, sends-limit)
		}
	})

	t.Run("member at head", func(t *testing.T) {
		tr, cleanup := overloadPair(t)
		defer cleanup()
		tr.SetOverloadLimits(limit)

		if err := tr.Send(testMsg(1, MsgMember, -1), 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < limit; i++ {
			if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
				t.Fatal(err)
			}
		}
		// The first shed takes the gossip frame right behind the membership
		// frame, which stays first.
		if got := queuedTicks(tr); tr.Overload().ShedQueue != 1 || len(got) < 2 || got[0] != -1 || got[1] != 1 {
			t.Fatalf("after one shed: ShedQueue = %d, queue %v; want 1 shed and the queue to open [-1 1]", tr.Overload().ShedQueue, got)
		}
		for i := limit; i < sends; i++ {
			if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
				t.Fatal(err)
			}
		}
		shed := sends + 1 - limit
		if got, depth := tr.Overload().ShedQueue, tr.queueDepth(); got != int64(shed) || depth != limit {
			t.Fatalf("ShedQueue = %d, queueDepth = %d; want %d shed, %d queued", got, depth, shed, limit)
		}
		want := append([]int{-1}, tickRange(shed, sends)...)
		if got := queuedTicks(tr); !slices.Equal(got, want) {
			t.Fatalf("queued %d frames, want tick -1 then %d..%d: %v", len(got), shed, sends-1, got)
		}
	})
}

// TestFlattenChunksReadsLiveEntries: teardown and re-queue take only a
// chunk's live entries, msgs[off:n], never the slots shedding left behind.
func TestFlattenChunksReadsLiveEntries(t *testing.T) {
	head, tail := getChunk(), getChunk()
	head.next = tail
	for i := 0; i < 10; i++ {
		head.msgs[i].SentTick = i
	}
	head.off, head.n = 4, 10 // ticks 0..3 were shed; their slots are stale
	for i := 0; i < 5; i++ {
		tail.msgs[i].SentTick = 10 + i
	}
	tail.n = 5
	var got []int
	for _, w := range flattenChunks(head) {
		got = append(got, w.SentTick)
	}
	if want := tickRange(4, 15); !slices.Equal(got, want) {
		t.Fatalf("flattened ticks %v, want %v", got, want)
	}
}

// TestGetChunkResetsOffset: a chunk recycled with its head offset advanced
// comes back from getChunk empty, offset included.
func TestGetChunkResetsOffset(t *testing.T) {
	// A sync.Pool may drop what it is given (the race detector does so at
	// random), so recycle until the dirty chunk itself comes back.
	for try := 0; try < 100; try++ {
		dirty := &msgChunk{next: new(msgChunk), off: 7, n: 9}
		chunkPool.Put(dirty)
		c := getChunk()
		if c.next != nil || c.off != 0 || c.n != 0 {
			t.Fatalf("getChunk returned next=%p off=%d n=%d, want an empty chunk", c.next, c.off, c.n)
		}
		if c == dirty {
			return
		}
	}
	t.Fatal("the pool never handed the recycled chunk back")
}

// TestWriteCycleReadsLiveEntries: the writer encodes and counts only a
// chunk's live entries.
func TestWriteCycleReadsLiveEntries(t *testing.T) {
	st := &StreamTransport{}
	var out bytes.Buffer
	cs := &connState{t: st, bw: bufio.NewWriter(&out)}
	head := getChunk()
	for i := 0; i < 10; i++ {
		head.msgs[i].SentTick = i
	}
	head.off, head.n = 6, 10
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
	if want := tickRange(6, 10); !slices.Equal(got, want) {
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
