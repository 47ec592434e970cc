package live

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gossip/internal/graph"
	"gossip/internal/member"
)

// TestChanTransportDrainClean: a send reaches the sink at once, delay and
// all, so the transport holds nothing in flight and Drain closes clean;
// sends after the drain are refused.
func TestChanTransportDrainClean(t *testing.T) {
	tr := NewChanTransport(2)
	inbox := sinkInbox(t, tr)
	msg := Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, Latency: 1,
		SentTick: 1, Payload: bitp{informed: true}}
	if err := tr.Send(msg, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := tr.Drain(ctx)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !rep.Clean {
		t.Fatalf("Drain report not clean: %+v", rep)
	}
	select {
	case got := <-inbox(1):
		if got.SentTick != 1 {
			t.Fatalf("delivered tick %d, want 1", got.SentTick)
		}
	default:
		t.Fatal("send never reached the sink")
	}
	if err := tr.Send(msg, 0); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Send after Drain = %v, want ErrTransportClosed", err)
	}
}

// TestTCPDrainClean: with a live peer, every queued frame flushes and every
// written message is acked before the transport closes — including the frames
// queued behind the connection's first dial, which the drain lets finish.
func TestTCPDrainClean(t *testing.T) {
	src, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	dstIn := sinkInbox(t, dst)
	src.SetPeers(map[graph.NodeID]string{1: dst.Addr().String()})

	const sends = 50
	for i := 0; i < sends; i++ {
		if err := src.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := src.Drain(ctx)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !rep.Clean || rep.QueuedAtClose != 0 || rep.PendingAtClose != 0 {
		t.Fatalf("Drain report not clean: %+v", rep)
	}
	if err := src.Send(testMsg(1, MsgRequest, 99), 0); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Send after Drain = %v, want ErrTransportClosed", err)
	}
	// Every send was queued before the drain began, and the peer is live:
	// all of them flushed and were acked, so all reached the peer.
	delivered := 0
	inbox := dstIn(1)
	for {
		select {
		case <-inbox:
			delivered++
			continue
		case <-time.After(time.Second):
		}
		break
	}
	if delivered != sends {
		t.Fatalf("delivered = %d, want %d", delivered, sends)
	}
	if dropped := src.Dropped(); int64(delivered)+dropped != sends {
		t.Fatalf("delivered %d + dropped %d != %d sends", delivered, dropped, sends)
	}
}

// TestTCPDrainDeadline: a peer that never acks pins the unacked count, so the
// drain gives up at the context deadline and reports what it abandoned.
func TestTCPDrainDeadline(t *testing.T) {
	addr, _, closeLn := quietListener(t)
	defer closeLn()
	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetPeers(map[graph.NodeID]string{1: addr})

	const sends = 5
	for i := 0; i < sends; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !pollUntil(5*time.Second, func() bool { return tr.unackedCount() == sends }) {
		t.Fatalf("unacked = %d, want %d", tr.unackedCount(), sends)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	rep, err := tr.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain error = %v, want DeadlineExceeded", err)
	}
	if rep.Clean {
		t.Fatal("deadline-expired drain reported clean")
	}
	if rep.PendingAtClose != sends {
		t.Fatalf("PendingAtClose = %d, want %d", rep.PendingAtClose, sends)
	}
}

// TestTCPDrainNoRedial (satellite: drain vs redial race): a connection that
// breaks mid-drain must NOT be redialed — the draining flag gates both the
// redial burst and fresh dials. The listener's accept counter proves it.
func TestTCPDrainNoRedial(t *testing.T) {
	// A quiet listener whose established connections can be broken while the
	// listener itself stays up — so a redial, were one attempted, would be
	// accepted and counted.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int64
	var connMu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			connMu.Lock()
			conns = append(conns, c)
			connMu.Unlock()
			go io.Copy(io.Discard, c)
		}
	}()
	breakConns := func() {
		connMu.Lock()
		defer connMu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		conns = nil
	}
	defer breakConns()
	addr := ln.Addr().String()

	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetPeers(map[graph.NodeID]string{1: addr})

	// One send first so the connection pool settles (concurrent first sends
	// may race extra dials); the rest then ride the pooled connection.
	const sends = 3
	if err := tr.Send(testMsg(1, MsgRequest, 0), 0); err != nil {
		t.Fatal(err)
	}
	if !pollUntil(5*time.Second, func() bool { return tr.unackedCount() == 1 }) {
		t.Fatalf("first send never written: unacked = %d", tr.unackedCount())
	}
	for i := 1; i < sends; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !pollUntil(5*time.Second, func() bool { return tr.unackedCount() == sends }) {
		t.Fatalf("unacked = %d, want %d", tr.unackedCount(), sends)
	}
	acceptsBefore := accepts.Load()

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		tr.Drain(ctx)
	}()
	// Break the live connection mid-drain: the reader sees EOF, connBroken
	// fires — and must not redial, even though the listener would accept.
	time.Sleep(50 * time.Millisecond)
	breakConns()
	<-drained
	if n := accepts.Load(); n != acceptsBefore {
		t.Fatalf("accepts = %d after mid-drain break, want %d (no redial)", n, acceptsBefore)
	}
}

// TestTCPClusterDrainLeaksNothing (satellite: leak regression): a 32-node
// TCP cluster under injected faults runs to completion, drains, and returns
// the process to its goroutine baseline with every timer shard empty.
func TestTCPClusterDrainLeaksNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster test")
	}
	baseline := runtime.NumGoroutine()

	g := graph.RingOfCliques(4, 8, 4) // 32 nodes across 4 transports
	const per = 8
	trs := make([]*TCPTransport, 4)
	fts := make([]*FaultTransport, 4)
	addrOf := map[graph.NodeID]string{}
	for i := range trs {
		nodes := make([]graph.NodeID, 0, per)
		for v := i * per; v < (i+1)*per; v++ {
			nodes = append(nodes, graph.NodeID(v))
		}
		tr, err := NewTCPTransport("127.0.0.1:0", nodes)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		for _, v := range nodes {
			addrOf[v] = tr.Addr().String()
		}
		fts[i] = NewFaultTransport(tr, FaultConfig{Seed: 7, Drop: 0.05, Tick: testTick})
	}
	for _, tr := range trs {
		tr.SetPeers(addrOf)
	}

	results := make(chan error, len(fts))
	for i, ft := range fts {
		nodes := make([]graph.NodeID, 0, per)
		for v := i * per; v < (i+1)*per; v++ {
			nodes = append(nodes, graph.NodeID(v))
		}
		go func(ft *FaultTransport, nodes []graph.NodeID) {
			res, err := Run(g, ppProto{source: 0}, ft, Options{
				Seed: 23, Tick: testTick, Nodes: nodes, NHint: g.N(),
				Linger: 100 * time.Millisecond,
			})
			if err == nil && !res.Completed {
				err = errors.New("run did not complete")
			}
			results <- err
		}(ft, nodes)
	}
	for range fts {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}

	for i, ft := range fts {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		rep, err := ft.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("transport %d: Drain: %v", i, err)
		}
		if !rep.Clean {
			t.Fatalf("transport %d: drain not clean: %+v", i, rep)
		}
	}
	for i, tr := range trs {
		if n := tr.unackedCount(); n != 0 {
			t.Fatalf("transport %d: %d unacked messages leaked", i, n)
		}
		if n := tr.queueDepth(); n != 0 {
			t.Fatalf("transport %d: %d queued frames leaked", i, n)
		}
	}
	// The runtime needs a beat to retire exiting goroutines.
	if !pollUntil(10*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseline+2
	}) {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
			baseline, runtime.NumGoroutine(), buf[:n])
	}
}

// TestRunLiveInterruptLeaves: an interrupted run flips every hosted node
// into leave mode — self-declared dead, no further initiations — and Run
// returns Interrupted without an error.
func TestRunLiveInterruptLeaves(t *testing.T) {
	g := graph.Clique(6, 1)
	tr := NewChanTransport(g.N())
	defer tr.Close()

	interrupt := make(chan struct{})
	type out struct {
		res Result
		err error
	}
	resCh := make(chan out, 1)
	go func() {
		// No node reports done before an unreachable tick count, so the run
		// is still in flight when the signal lands however fast the rumor
		// spreads. The source crashes forever so one node is down, not
		// leaving, at the interrupt.
		res, err := Run(g, slowProto{source: 0, minTick: 1 << 30}, tr, Options{
			Seed: 3, Tick: testTick, DrainTicks: 2,
			Interrupt:  interrupt,
			Crashes:    map[graph.NodeID]CrashPlan{0: {At: 1}},
			Membership: &MembershipConfig{},
		})
		resCh <- out{res, err}
	}()
	time.Sleep(30 * time.Millisecond)
	close(interrupt)

	var o out
	select {
	case o = <-resCh:
	case <-time.After(10 * time.Second):
		t.Fatal("interrupted run never returned")
	}
	if o.err != nil {
		t.Fatalf("interrupted run error: %v", o.err)
	}
	if !o.res.Interrupted {
		t.Fatal("Result.Interrupted = false after interrupt")
	}
	if o.res.Completed {
		t.Fatal("crashed-source run claims completion")
	}
	// The leave broadcast fired: every live node marked itself Dead.
	for v, table := range o.res.Members {
		if v == 0 {
			continue // crashed before the interrupt; never left
		}
		for _, up := range table {
			if up.Node == int(v) && up.St != member.Dead {
				t.Fatalf("node %d self-state = %v after leave, want Dead", v, up.St)
			}
		}
	}
}
