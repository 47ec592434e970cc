package live

import (
	"bufio"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gossip/internal/graph"
)

// TestRoutePeerDownCountsNodes: an address hosting three nodes goes down
// only once all three are believed dead, a PeerUp in between heals the
// count, and a PeerUp after that brings the address back. Every local
// observer forwards the same verdict, so a repeated PeerDown counts its node
// once, and a PeerUp for a node never declared dead changes nothing. A node
// SetPeers adds to a down address is not yet dead, so the address comes
// back; one it moves away no longer counts there. The only sends are made
// while the address is down, so nothing dials it.
func TestRoutePeerDownCountsNodes(t *testing.T) {
	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const addr = "127.0.0.1:1"
	tr.SetPeers(map[graph.NodeID]string{1: addr, 2: addr, 3: addr})
	r := routeTo(tr, addr)
	step := func(what string, f func(graph.NodeID), u graph.NodeID, down bool) {
		t.Helper()
		f(u)
		if r.down.Load() != down {
			t.Fatalf("after %s(%d): down %v, want %v", what, u, r.down.Load(), down)
		}
	}
	step("PeerDown", tr.PeerDown, 1, false)
	step("PeerDown", tr.PeerDown, 2, false)
	step("PeerUp", tr.PeerUp, 1, false)
	step("PeerDown", tr.PeerDown, 3, false) // 2 and 3 dead, 1 alive
	step("PeerDown", tr.PeerDown, 1, true)  // the third
	if err := tr.Send(testMsg(2, MsgRequest, 1), 0); err != nil {
		t.Fatal(err)
	}
	if n := tr.Dropped(); n != 1 {
		t.Fatalf("Dropped = %d after a send to a down address, want 1", n)
	}
	step("PeerUp", tr.PeerUp, 2, false)

	// Repeated verdicts for one node, as several observers send them, count
	// it once: 1 and 3 are dead, 2 is alive however often 3 is reported.
	for i := 0; i < 3; i++ {
		step("PeerDown", tr.PeerDown, 3, false)
	}
	// Alive verdicts for a node never declared dead trip nothing and leave
	// no debt: the one remaining death still brings the address down.
	for i := 0; i < 3; i++ {
		step("PeerUp", tr.PeerUp, 2, false)
	}
	step("PeerDown", tr.PeerDown, 2, true)
	if err := tr.Send(testMsg(3, MsgRequest, 2), 0); err != nil {
		t.Fatal(err)
	}
	if n := tr.Dropped(); n != 2 {
		t.Fatalf("Dropped = %d after a second refused send, want 2", n)
	}
	step("PeerUp", tr.PeerUp, 1, false)

	// A live node joins the down address: it takes sends again. Moving that
	// node away leaves only dead nodes there, and the refusal returns.
	step("PeerDown", tr.PeerDown, 1, true)
	const elsewhere = "127.0.0.1:2"
	step("SetPeers", func(u graph.NodeID) { tr.SetPeers(map[graph.NodeID]string{u: addr}) }, 4, false)
	step("SetPeers", func(u graph.NodeID) { tr.SetPeers(map[graph.NodeID]string{u: elsewhere}) }, 4, true)
	// Moving dead node 1 away leaves 2 and 3, both dead: still down. Its
	// verdict does not stay behind, so one PeerUp brings the address back.
	step("SetPeers", func(u graph.NodeID) { tr.SetPeers(map[graph.NodeID]string{u: elsewhere}) }, 1, true)
	step("PeerUp", tr.PeerUp, 3, false)
	step("PeerDown", tr.PeerDown, 3, true)
	step("PeerUp", tr.PeerUp, 2, false)

	// A node the table does not route, or an ID no node has, changes nothing.
	step("PeerDown", tr.PeerDown, 1<<40, false)
	step("PeerDown", tr.PeerDown, -1, false)
	step("PeerUp", tr.PeerUp, 1<<40, false)
	if n := tr.queueDepth(); n != 0 {
		t.Fatalf("queueDepth = %d, want 0: a refused send queues nothing", n)
	}
}

// TestRouteReuseAcrossSetPeers: a second SetPeers after traffic that adds a
// node at an address already routed puts it on the same route, so it shares
// the pooled connection (one dial, one accepted connection at the peer) and
// the membership verdicts.
func TestRouteReuseAcrossSetPeers(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bIn := sinkInbox(t, b)
	addr := b.Addr().String()

	a.SetPeers(map[graph.NodeID]string{1: addr})
	if err := a.Send(testMsg(1, MsgRequest, 1), 0); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, bIn(1), 5*time.Second)
	r, cs := routeTo(a, addr), pooled(a, addr)
	if cs == nil {
		t.Fatal("no pooled connection after the first delivery")
	}

	a.SetPeers(map[graph.NodeID]string{2: addr})
	if err := a.Send(testMsg(2, MsgRequest, 2), 0); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, bIn(2), 5*time.Second)
	tab := a.routes.Load()
	if tab.lookup(1) != r || tab.lookup(2) != r || routeTo(a, addr) != r {
		t.Fatal("the extension built a second route for a known address")
	}
	if got := pooled(a, addr); got != cs {
		t.Fatal("the extension replaced the pooled connection")
	}
	if n := r.nodes.Load(); n != 2 {
		t.Fatalf("route counts %d nodes, want 2", n)
	}
	for name, tr := range map[string]*StreamTransport{"sender": a, "receiver": b} {
		tr.connMu.Lock()
		n := len(tr.conns)
		tr.connMu.Unlock()
		if n != 1 {
			t.Fatalf("%s holds %d connections, want 1", name, n)
		}
	}
}

// TestRouteSendRacesSetPeers: sends and membership verdicts racing repeated
// route-table rebuilds are clean under the race detector, and every send to
// a routed node is delivered or counted.
func TestRouteSendRacesSetPeers(t *testing.T) {
	const nodes = 64
	hosted := make([]graph.NodeID, nodes)
	for i := range hosted {
		hosted[i] = graph.NodeID(i + 1)
	}
	a, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPTransport("127.0.0.1:0", hosted)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got atomic.Int64
	b.SetSink(func(Message, time.Duration) bool { got.Add(1); return true })
	addr := b.Addr().String()
	a.SetPeers(map[graph.NodeID]string{1: addr})

	var wg sync.WaitGroup
	var sent atomic.Int64
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // the writer: extend the table one node at a time, then redo it
		defer wg.Done()
		for round := 0; round < 20; round++ {
			for u := 2; u <= nodes; u++ {
				a.SetPeers(map[graph.NodeID]string{graph.NodeID(u): addr})
			}
		}
		close(stop)
	}()
	go func() { // the sender: every node, routed yet or not
		defer wg.Done()
		for tick := 0; ; tick++ {
			select {
			case <-stop:
				return
			default:
			}
			u := graph.NodeID(1 + tick%nodes)
			if a.Send(testMsg(u, MsgRequest, tick), 0) == nil {
				sent.Add(1)
			}
			a.PeerDown(u)
			a.PeerUp(u)
		}
	}()
	wg.Wait()
	for u := graph.NodeID(1); u <= nodes; u++ {
		if err := a.Send(testMsg(u, MsgRequest, -1), 0); err != nil {
			t.Fatalf("node %d unrouted after the rebuilds: %v", u, err)
		}
		sent.Add(1)
	}
	if !pollUntil(10*time.Second, func() bool { return got.Load()+a.Dropped() == sent.Load() }) {
		t.Fatalf("sent %d: delivered %d + dropped %d", sent.Load(), got.Load(), a.Dropped())
	}
	if r := routeTo(a, addr); r.nodes.Load() != nodes {
		t.Fatalf("route counts %d nodes, want %d", r.nodes.Load(), nodes)
	}
}

// TestRouteOutOfRangeIDsDropped: the hosted set and the route table are
// dense slices, so an ID past their end or negative must read as a miss. A
// wire frame whose To or From names no node — past the graph, at the ends of
// the int range, or negative — counts as exactly one misroute drop, panics
// nothing and leaves the connection up; a Send to such a To is the
// "no peer address" error.
func TestRouteOutOfRangeIDsDropped(t *testing.T) {
	g := graph.Cycle(16, 1)
	interrupt := make(chan struct{})
	trs, wait := unixPair(t, g, ppProto{source: -1}, Options{
		Seed: 1, Tick: time.Millisecond, MaxTicks: 1 << 20, Interrupt: interrupt,
	})
	b := trs[1] // hosts 8..15
	edge := -1
	for _, he := range g.Neighbors(8) {
		if he.To == 9 {
			edge = int(he.ID)
		}
	}
	if !pollUntil(5*time.Second, func() bool { return b.sink.Load() != nil }) {
		t.Fatal("runtime never attached its sink")
	}
	for _, to := range []graph.NodeID{16, 1 << 40, math.MaxInt64, -1, math.MinInt64} {
		err := b.Send(Message{Kind: MsgRequest, From: 8, To: to, EdgeID: edge, Payload: bitp{informed: true}}, 0)
		if err == nil || !strings.Contains(err.Error(), "no peer address") {
			t.Fatalf("Send to %d: err = %v, want no peer address", to, err)
		}
	}

	c, err := net.Dial("unix", strings.TrimPrefix(b.Addr().String(), unixScheme))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var enc wireEnc
	bad := []struct{ from, to int }{
		{7, 16}, {7, 1 << 40}, {7, math.MaxInt64}, {7, -1}, {7, math.MinInt64},
		{16, 9}, {1 << 40, 9}, {math.MaxInt64, 9}, {-1, 9}, {math.MinInt64, 9},
	}
	for i, ft := range bad {
		w := wireMessage{Kind: uint8(MsgRequest), From: ft.from, To: ft.to, EdgeID: edge, Latency: 1, SentTick: i + 1,
			Payload: bitp{informed: true}}
		if _, err := c.Write(frameOf(&enc, nil, w, 0)); err != nil {
			t.Fatalf("frame %d (from %d, to %d): %v", i, ft.from, ft.to, err)
		}
		if !pollUntil(5*time.Second, func() bool { return b.dropsMisroute.Load() == int64(i+1) }) {
			t.Fatalf("frame %d (from %d, to %d): dropsMisroute = %d, want %d", i, ft.from, ft.to, b.dropsMisroute.Load(), i+1)
		}
	}
	if n := b.dropsDecode.Load(); n != 0 {
		t.Fatalf("dropsDecode = %d, want 0", n)
	}
	// The connection is still up: b acks every frame it decoded.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	br, acked := bufio.NewReader(c), uint64(0)
	var dec wireDec
	for acked < uint64(len(bad)) {
		ack, _, err := dec.readFrameMulti(br)
		if err != nil {
			t.Fatalf("connection lost after %d acked: %v", acked, err)
		}
		acked = max(acked, ack)
	}
	time.Sleep(10 * time.Millisecond) // a delivered frame would spread meanwhile
	close(interrupt)
	for i, r := range wait() {
		if n := countTrue(r.Done); n != 0 {
			t.Fatalf("runtime %d: %d nodes informed by an out-of-range frame", i, n)
		}
	}
}

// TestStreamSendAllocs: a remote Send on a pooled connection allocates
// nothing: the route is one atomic load, and the queue's chunks recycle.
func TestStreamSendAllocs(t *testing.T) {
	a, b := tcpPair(t)
	var got atomic.Int64
	b.SetSink(func(Message, time.Duration) bool { got.Add(1); return true })
	msg := testMsg(1, MsgRequest, 0)
	if err := a.Send(msg, 0); err != nil {
		t.Fatal(err)
	}
	if !pollUntil(5*time.Second, func() bool { return got.Load() == 1 }) {
		t.Fatal("first send never arrived")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		msg.SentTick++
		if err := a.Send(msg, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%.2f allocs per remote Send, want 0", allocs)
	}
}
