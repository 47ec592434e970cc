package live

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gossip/internal/graph"
)

// fabrics are the connection families under test. Every fabric speaks the
// identical wire protocol through the same stream core, so every test here
// is a parity check: behavior proven for TCP must hold verbatim.
var fabrics = []string{"tcp", "unix"}

// fabricListen listens on the given fabric at addr, or at a fresh address
// when addr is "" (an ephemeral loopback port, or a socket in a short temp
// dir), and returns the listener and the address peers dial it by.
func fabricListen(t testing.TB, fabric, addr string) (net.Listener, string) {
	t.Helper()
	var ln net.Listener
	var err error
	switch fabric {
	case "tcp":
		if ln, err = net.Listen("tcp", cmp.Or(addr, "127.0.0.1:0")); err == nil {
			addr = ln.Addr().String()
		}
	case "unix":
		if addr == "" {
			// Short MkdirTemp dir, not t.TempDir(): sun_path caps at ~108
			// bytes and long test names would overflow it.
			dir, derr := os.MkdirTemp("", "gsp")
			if derr != nil {
				t.Fatal(derr)
			}
			t.Cleanup(func() { os.RemoveAll(dir) })
			addr = unixScheme + filepath.Join(dir, "d.sock")
		}
		ln, err = listenUnixSocket(strings.TrimPrefix(addr, unixScheme))
	default:
		t.Fatalf("unknown fabric %q", fabric)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ln, addr
}

// newFabricTransport builds one transport of the given fabric hosting the
// given nodes, returning it and the address peers should dial.
func newFabricTransport(t testing.TB, fabric string, hosted []graph.NodeID) (*StreamTransport, string) {
	t.Helper()
	ln, addr := fabricListen(t, fabric, "")
	tr := newStreamTransport(hosted)
	if err := tr.addListener(ln, fabric == "unix"); err != nil {
		t.Fatal(err)
	}
	return tr, addr
}

// TestFabricRoundTripCountsLocal sends over each fabric and checks delivery,
// a clean drain with exact zero close-time accounting, and that the
// WireLocal* counters attribute traffic to local fabrics only: on the unix
// fabric every frame and byte is local, none leaked onto TCP.
func TestFabricRoundTripCountsLocal(t *testing.T) {
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			a, _ := newFabricTransport(t, fabric, []graph.NodeID{0})
			b, baddr := newFabricTransport(t, fabric, []graph.NodeID{1})
			defer b.Close()
			bIn := sinkInbox(t, b)
			a.SetPeers(map[graph.NodeID]string{1: baddr})

			const sends = 32
			for i := 0; i < sends; i++ {
				if err := a.Send(testMsg(1, MsgRequest, i), 0); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < sends; i++ {
				recvWithin(t, bIn(1), 5*time.Second)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rep, err := a.Drain(ctx)
			if err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if !rep.Clean || rep.QueuedAtClose != 0 || rep.PendingAtClose != 0 {
				t.Fatalf("drain not exactly clean on %s: %+v", fabric, rep)
			}
			local := fabric != "tcp"
			if gotFrames, gotBytes := a.WireLocalFrames(), a.WireLocalBytes(); local {
				if gotFrames == 0 || gotBytes == 0 {
					t.Errorf("local fabric %s counted no local traffic: frames=%d bytes=%d", fabric, gotFrames, gotBytes)
				}
				if gotFrames != a.WireFramesOut() || gotBytes != a.WireBytesOut() {
					t.Errorf("frames leaked onto TCP: local/total frames %d/%d bytes %d/%d",
						gotFrames, a.WireFramesOut(), gotBytes, a.WireBytesOut())
				}
			} else if gotFrames != 0 || gotBytes != 0 {
				t.Errorf("tcp counted local traffic: frames=%d bytes=%d", gotFrames, gotBytes)
			}
		})
	}
}

// TestFabricSinkMissCountsDrop: over each fabric, a message no sink takes —
// none installed, or the sink refused it — is one misroute drop on the
// transport that had it, a local send and a wire arrival alike. Neither
// blocks: the send returns, and the read loop goes on delivering and
// acking. The next message, with a sink installed, is delivered.
func TestFabricSinkMissCountsDrop(t *testing.T) {
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			a, _ := newFabricTransport(t, fabric, []graph.NodeID{0, 2})
			defer a.Close()
			b, baddr := newFabricTransport(t, fabric, []graph.NodeID{1})
			defer b.Close()
			a.SetPeers(map[graph.NodeID]string{1: baddr})
			tick := 0
			send := func(to graph.NodeID) {
				t.Helper()
				tick++
				if err := a.Send(testMsg(to, MsgRequest, tick), 0); err != nil {
					t.Fatal(err)
				}
			}
			for drops, refuse := range []bool{false, true} {
				if refuse {
					no := func(Message, time.Duration) bool { return false }
					a.SetSink(no)
					b.SetSink(no)
				}
				send(2)
				if got := a.Dropped(); got != int64(drops+1) {
					t.Fatalf("refuse=%v: local Dropped = %d, want %d", refuse, got, drops+1)
				}
				send(1)
				if !pollUntil(5*time.Second, func() bool { return b.Dropped() == int64(drops+1) }) {
					t.Fatalf("refuse=%v: arrival Dropped = %d, want %d", refuse, b.Dropped(), drops+1)
				}
			}
			aIn, bIn := sinkInbox(t, a), sinkInbox(t, b)
			send(2)
			select {
			case <-aIn(2):
			default:
				t.Fatal("local send never reached the installed sink")
			}
			send(1)
			recvWithin(t, bIn(1), 5*time.Second)
			if !pollUntil(5*time.Second, func() bool { return allAcked(a) }) {
				t.Fatal("arrivals no sink took stalled the acks")
			}
			if da, db := a.Dropped(), b.Dropped(); da != 2 || db != 2 {
				t.Fatalf("Dropped = %d, %d after delivered sends, want 2, 2", da, db)
			}
		})
	}
}

// TestFabricMixedInterop runs one cluster across both fabrics at once: a
// TCP-listening transport and a unix-listening transport exchange a full
// mesh of messages. The wire format is fabric-invariant, so everything
// interoperates through one peer map.
func TestFabricMixedInterop(t *testing.T) {
	trs := make([]*StreamTransport, len(fabrics))
	ins := make([]func(graph.NodeID) <-chan Message, len(fabrics))
	addrs := make(map[graph.NodeID]string, len(fabrics))
	for i, fabric := range fabrics {
		tr, addr := newFabricTransport(t, fabric, []graph.NodeID{graph.NodeID(i)})
		defer tr.Close()
		trs[i] = tr
		ins[i] = sinkInbox(t, tr)
		addrs[graph.NodeID(i)] = addr
	}
	for _, tr := range trs {
		tr.SetPeers(addrs)
	}

	const perPair = 8
	for from := range trs {
		for to := range trs {
			if from == to {
				continue
			}
			for i := 0; i < perPair; i++ {
				m := Message{Kind: MsgRequest, From: graph.NodeID(from), To: graph.NodeID(to),
					EdgeID: from*len(trs) + to, Latency: 1, SentTick: i, Payload: bitp{informed: true}}
				if err := trs[from].Send(m, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for to := range trs {
		for i := 0; i < perPair*(len(trs)-1); i++ {
			recvWithin(t, ins[to](graph.NodeID(to)), 5*time.Second)
		}
	}
	for i, tr := range trs {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		rep, err := tr.Drain(ctx)
		cancel()
		if err != nil || !rep.Clean {
			t.Fatalf("transport %d (%s): drain = %+v, %v", i, fabrics[i], rep, err)
		}
	}
}

// TestFabricUnixRedialAfterSocketRemoval: the unix analogue of TCP
// connection-loss recovery. The server's socket is torn down and re-created
// at the same path (a daemon restart), the pooled connection is severed, and
// the next send — re-queued if its write hit the dead socket — must redial
// the fresh socket and deliver.
func TestFabricUnixRedialAfterSocketRemoval(t *testing.T) {
	dir, err := os.MkdirTemp("", "gsp")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "d.sock")

	a, err := NewUnixTransport(filepath.Join(dir, "a.sock"), []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUnixTransport(sock, []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeers(map[graph.NodeID]string{1: unixScheme + sock})
	bIn := sinkInbox(t, b)

	if err := a.Send(testMsg(1, MsgRequest, 1), 0); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, bIn(1), 5*time.Second)

	// Daemon restart: old listener (and its socket file) gone, new one at
	// the same path, pooled connection severed under the sender.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := NewUnixTransport(sock, []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2In := sinkInbox(t, b2)

	if err := a.Send(testMsg(1, MsgRequest, 2), 0); err != nil {
		t.Fatal(err)
	}
	got := recvWithin(t, b2In(1), 5*time.Second)
	if got.SentTick != 2 {
		t.Fatalf("unexpected arrival %+v", got)
	}
	if a.Dropped() != 0 {
		t.Errorf("Dropped = %d after successful redial", a.Dropped())
	}
}

// TestFabricBrokenConnCountsUnacked: a peer decodes every message written on
// its connection, acks only the first K, and closes. The byte stream
// delivered in order, so the sender counts exactly the N − K unacked
// messages as lost — whether or not they arrived, nothing else — and the
// next send redials and arrives over a fresh connection.
func TestFabricBrokenConnCountsUnacked(t *testing.T) {
	const n, k = 12, 5
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			var conns atomic.Int64
			later := make(chan wireMessage, 1)
			addr, stop := quietFabricPeer(t, fabric, func(c net.Conn) {
				defer c.Close()
				first := conns.Add(1) == 1
				var dec wireDec
				br := bufio.NewReader(c)
				decoded := 0
				for {
					_, msgs, err := dec.readFrameMulti(br)
					if err != nil {
						return
					}
					if !first {
						for _, m := range msgs {
							later <- m
						}
						continue
					}
					if decoded += len(msgs); decoded >= n {
						c.Write(appendAckFrame(nil, k))
						return
					}
				}
			})
			defer stop()
			a, _ := newFabricTransport(t, fabric, []graph.NodeID{0})
			defer a.Close()
			a.SetPeers(map[graph.NodeID]string{1: addr})

			for i := 0; i < n; i++ {
				if err := a.Send(testMsg(1, MsgRequest, i), 0); err != nil {
					t.Fatal(err)
				}
			}
			if !pollUntil(5*time.Second, func() bool { return a.Dropped() == n-k }) {
				t.Fatalf("Dropped = %d after the break, want %d", a.Dropped(), n-k)
			}
			if !pollUntil(5*time.Second, func() bool { return pooled(a, addr) == nil }) {
				t.Fatal("broken connection still pooled")
			}
			if err := a.Send(testMsg(1, MsgRequest, n), 0); err != nil {
				t.Fatal(err)
			}
			select {
			case m := <-later:
				if m.SentTick != n {
					t.Fatalf("fresh connection carried tick %d, want %d", m.SentTick, n)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("send after the break never arrived")
			}
			if got := conns.Load(); got != 2 {
				t.Errorf("connections = %d, want 2", got)
			}
			if got := a.Dropped(); got != n-k {
				t.Errorf("Dropped = %d once the fresh connection delivered, want %d", got, n-k)
			}
			if got := a.dropsBroken.Load(); got != n-k {
				t.Errorf("broken-connection drops = %d, want %d", got, n-k)
			}
		})
	}
}

// TestFabricStaleSocketReclaim: a socket file orphaned by a dead process
// (simulated by closing the raw listener with unlink suppressed) must be
// reclaimed by the next ListenUnix, while a live listener's path must not.
func TestFabricStaleSocketReclaim(t *testing.T) {
	dir, err := os.MkdirTemp("", "gsp")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "d.sock")

	// Live listener: the path is taken, binding again must fail.
	live, err := NewUnixTransport(sock, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUnixTransport(sock, []graph.NodeID{1}); err == nil {
		t.Fatal("second listener on a live socket succeeded")
	}
	live.Close()

	// Orphaned file: nothing answers, the bind must reclaim it.
	if ln, err := listenUnixSocket(sock); err == nil {
		// Close suppressing unlink so the file survives like a crashed
		// process would leave it.
		ln.(interface{ SetUnlinkOnClose(bool) }).SetUnlinkOnClose(false)
		ln.Close()
	} else {
		t.Fatal(err)
	}
	if _, err := os.Stat(sock); err != nil {
		t.Fatalf("stale socket file missing before reclaim test: %v", err)
	}
	tr, err := NewUnixTransport(sock, []graph.NodeID{0})
	if err != nil {
		t.Fatalf("stale socket not reclaimed: %v", err)
	}
	tr.Close()
}

// TestFabricDrainPendingParity stages the same un-drainable state on every
// fabric — four unacked sends against a peer that accepts but never acks,
// one of them an hour-delayed send, which goes on the wire at once like the
// rest (the receiver applies the delay) — and requires the DrainReport
// close-time accounting to be exactly equal across them.
func TestFabricDrainPendingParity(t *testing.T) {
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			tr, _ := newFabricTransport(t, fabric, []graph.NodeID{0})
			addr, stop := quietFabricPeer(t, fabric, nil)
			defer stop()
			tr.SetPeers(map[graph.NodeID]string{1: addr})

			const pendingSends = 4
			if err := tr.Send(testMsg(1, MsgRequest, 0), time.Hour); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pendingSends-1; i++ {
				if err := tr.Send(testMsg(1, MsgRequest, i+1), 0); err != nil {
					t.Fatal(err)
				}
			}
			if !pollUntil(5*time.Second, func() bool { return tr.unackedCount() == pendingSends }) {
				t.Fatalf("unacked = %d, want %d", tr.unackedCount(), pendingSends)
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
			if rep.PendingAtClose != pendingSends || rep.QueuedAtClose != 0 {
				t.Errorf("PendingAtClose = %d, QueuedAtClose = %d, want %d, 0",
					rep.PendingAtClose, rep.QueuedAtClose, pendingSends)
			}
		})
	}
}

// quietFabricPeer listens on the given fabric and hands every accepted
// connection to serve — nil reads and discards its input, so frames transmit
// but are never acked, pinning the sender's unacked count.
func quietFabricPeer(t testing.TB, fabric string, serve func(net.Conn)) (addr string, stop func()) {
	t.Helper()
	if serve == nil {
		serve = func(c net.Conn) { io.Copy(io.Discard, c) }
	}
	ln, addr := fabricListen(t, fabric, "")
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(c)
		}
	}()
	return addr, func() { ln.Close() }
}

// TestFaultDeterministicAcrossFabrics is the chaos-parity check for the
// fabrics: the identical fault plan over the identical message schedule must
// produce the identical injected-fault counters, the identical per-phase
// rows and the identical arrival multiset whether the messages travel the
// in-process transport, TCP or unix sockets. Fault decisions are a PRF of
// message identity taken above the transport, and every transport delivers
// each copy it is given, injected duplicates included, so any divergence
// means a fabric leaked into delivery semantics. Two plans run:
// whole-run weather with one partition epoch, and the same weather under a
// staged phase list (a one-way cut, a flapping cut, a slow-node ramp).
func TestFaultDeterministicAcrossFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-transport cluster run is not -short friendly")
	}
	g := graph.Dumbbell(4, 2)
	var left, right []graph.NodeID
	for u := 0; u < g.N(); u++ {
		if u < g.N()/2 {
			left = append(left, graph.NodeID(u))
		} else {
			right = append(right, graph.NodeID(u))
		}
	}
	bridge := CutBetween(g, left, right)
	weather := FaultConfig{
		Seed:        5519,
		Drop:        0.10,
		Duplicate:   0.05,
		JitterTicks: 2,
		Tick:        time.Millisecond,
	}
	partitioned, staged := weather, weather
	partitioned.Phases = []FaultPhase{{From: 2, Until: 4, Cut: bridge}}
	staged.Phases = []FaultPhase{
		{Name: "asym", From: 0, Until: 3, AsymFrom: left, AsymTo: right},
		{Name: "flap", From: 1, Until: 6, Cut: bridge, FlapPeriod: 2, FlapUp: 1},
		{Name: "slow", From: 0, Until: 6, SlowNodes: []graph.NodeID{0, 3, 4}, SlowMaxTicks: 3},
	}
	feed := scriptedFeed(g, 6)

	type outcome struct {
		got    map[arrivalKey]int
		rep    FaultCounts
		phases []FaultPhaseReport
	}
	for name, cfg := range map[string]FaultConfig{"partition": partitioned, "staged": staged} {
		t.Run(name, func(t *testing.T) {
			// The in-process transport is the reference: it never encodes,
			// and it delivers every copy it is given.
			got, rep := runScripted(t, g, feed, cfg)
			ref := outcome{got, FaultCounts{
				InjectedDrops:  rep.InjectedDrops,
				InjectedDups:   rep.InjectedDups,
				Jittered:       rep.Jittered,
				PartitionDrops: rep.PartitionDrops,
			}, rep.Phases}
			if ref.rep.InjectedDrops == 0 || ref.rep.InjectedDups == 0 || ref.rep.Jittered == 0 || ref.rep.PartitionDrops == 0 {
				t.Errorf("fault plan injected nothing on some axis: %+v", ref.rep)
			}
			for i, row := range ref.phases {
				if row.CutDrops+row.AsymDrops+row.Delayed == 0 {
					t.Errorf("phase %d injected nothing: %+v", i, row)
				}
			}
			for _, fabric := range fabrics {
				got, rep, phases := runScriptedFaults(t, fabric, g, feed, cfg)
				o := outcome{got, rep, phases}
				if o.rep != ref.rep {
					t.Errorf("injected fault counters diverge on %s:\ninproc: %+v\n%s: %+v", fabric, ref.rep, fabric, o.rep)
				}
				if !reflect.DeepEqual(o.phases, ref.phases) {
					t.Errorf("per-phase rows diverge on %s:\ninproc: %+v\n%s: %+v", fabric, ref.phases, fabric, o.phases)
				}
				for k, n := range ref.got {
					if o.got[k] != n {
						t.Errorf("arrival %+v: inproc=%d %s=%d deliveries", k, n, fabric, o.got[k])
					}
				}
				delivered := int64(0)
				for k, n := range o.got {
					delivered += int64(n)
					if _, ok := ref.got[k]; !ok {
						t.Errorf("arrival %+v: inproc=0 %s=%d deliveries", k, fabric, n)
					}
				}
				if want := int64(len(feed)) - o.rep.InjectedDrops - o.rep.PartitionDrops + o.rep.InjectedDups; delivered != want {
					t.Errorf("%s delivery ledger does not balance: delivered=%d, want %d (%+v)", fabric, delivered, want, o.rep)
				}
			}
		})
	}
}

// runScriptedFaults feeds a deterministic schedule through per-side
// FaultTransports over a two-transport cluster on the given fabric, waits
// for every written send to be acked, and returns the arrival multiset
// plus the summed injected-fault counters and per-phase rows. The sides
// host alternate nodes, so most of the schedule crosses the sockets.
func runScriptedFaults(t *testing.T, fabric string, g *graph.Graph, feed []Message, cfg FaultConfig) (map[arrivalKey]int, FaultCounts, []FaultPhaseReport) {
	t.Helper()
	side := func(u graph.NodeID) int { return int(u) % 2 }
	var hosted [2][]graph.NodeID
	for u := 0; u < g.N(); u++ {
		hosted[side(graph.NodeID(u))] = append(hosted[side(graph.NodeID(u))], graph.NodeID(u))
	}
	var trs [2]*StreamTransport
	var fts [2]*FaultTransport
	var ins [2]func(graph.NodeID) <-chan Message
	addrs := make(map[graph.NodeID]string, g.N())
	for i := range trs {
		tr, addr := newFabricTransport(t, fabric, hosted[i])
		trs[i] = tr
		for _, u := range hosted[i] {
			addrs[u] = addr
		}
	}
	for i := range trs {
		trs[i].SetPeers(addrs)
		fts[i] = NewFaultTransport(trs[i], cfg)
		defer fts[i].Close()
		ins[i] = sinkInbox(t, fts[i])
	}
	for _, m := range feed {
		if err := fts[side(m.From)].Send(m, 0); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	// Give every surviving send time to arrive and be acked (the sink gets
	// a message at once; its delay is a runtime's to apply).
	extra := 2 * (cfg.JitterTicks + 1)
	for _, p := range cfg.Phases {
		extra += p.SlowMaxTicks
	}
	time.Sleep(50*time.Millisecond + time.Duration(extra)*cfg.Tick)
	deadline := time.Now().Add(10 * time.Second)
	for (trs[0].unackedCount() != 0 || trs[1].unackedCount() != 0) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	got := make(map[arrivalKey]int)
	for u := 0; u < g.N(); u++ {
		ch := ins[side(graph.NodeID(u))](graph.NodeID(u))
		for {
			select {
			case m := <-ch:
				got[arrivalKey{edge: m.EdgeID, from: m.From, sentTick: m.SentTick}]++
				continue
			default:
			}
			break
		}
	}
	var sum FaultCounts
	phases := make([]FaultPhaseReport, len(cfg.Phases))
	for i := range fts {
		rep := fts[i].Faults()
		sum.InjectedDrops += rep.InjectedDrops
		sum.InjectedDups += rep.InjectedDups
		sum.Jittered += rep.Jittered
		sum.PartitionDrops += rep.PartitionDrops
		for j, row := range rep.Phases {
			phases[j].Name = row.Name
			phases[j].CutDrops += row.CutDrops
			phases[j].AsymDrops += row.AsymDrops
			phases[j].LossDrops += row.LossDrops
			phases[j].Delayed += row.Delayed
		}
	}
	return got, sum, phases
}

// lateFabricPeer returns an address on the given fabric that nothing listens
// on yet, and a function that brings up a transport hosting the given nodes
// there, its sinkInbox installed before it accepts a waiting dialer.
func lateFabricPeer(t *testing.T, fabric string) (addr string, listen func(hosted []graph.NodeID) (*StreamTransport, func(graph.NodeID) <-chan Message)) {
	ln, addr := fabricListen(t, fabric, "")
	ln.Close() // a unix listener unlinks its socket file
	return addr, func(hosted []graph.NodeID) (*StreamTransport, func(graph.NodeID) <-chan Message) {
		ln, _ := fabricListen(t, fabric, addr)
		tr := newStreamTransport(hosted)
		inbox := sinkInbox(t, tr)
		if err := tr.addListener(ln, fabric == "unix"); err != nil {
			t.Fatal(err)
		}
		return tr, inbox
	}
}

// TestFabricDialOnceForManySenders: sends from several goroutines toward a
// peer whose listener comes up 100 ms later never wait for the dial — every
// one returns while nothing listens yet, queued behind the connection's
// writer, which is the only goroutine the dial costs. Once the peer is up,
// the writer's single dial carries all of them: exactly one connection is
// accepted, everything arrives, and nothing is dropped.
func TestFabricDialOnceForManySenders(t *testing.T) {
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			addr, listen := lateFabricPeer(t, fabric)
			a, _ := newFabricTransport(t, fabric, []graph.NodeID{0})
			defer a.Close()
			a.SetPeers(map[graph.NodeID]string{1: addr})
			baseline := runtime.NumGoroutine()
			start := time.Now()

			const senders, sends = 4, 1000
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := s; i < sends; i += senders {
						if err := a.Send(testMsg(1, MsgRequest, i), 0); err != nil {
							t.Error(err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			// Nothing listens yet, so no dial can have succeeded: every send
			// returned without one and sits in the dialing connection's queue.
			if q := a.queueDepth(); q != sends {
				t.Fatalf("queued behind the dial = %d, want %d", q, sends)
			}
			if !pollUntil(time.Second, func() bool { return runtime.NumGoroutine() <= baseline+2 }) {
				t.Fatalf("goroutines during the dial = %d, baseline %d", runtime.NumGoroutine(), baseline)
			}

			time.Sleep(100*time.Millisecond - time.Since(start))
			b, bIn := listen([]graph.NodeID{1})
			defer b.Close()
			for i := 0; i < sends; i++ {
				recvWithin(t, bIn(1), 10*time.Second)
			}
			b.connMu.Lock()
			accepted := len(b.conns)
			b.connMu.Unlock()
			if accepted != 1 {
				t.Errorf("accepted connections = %d, want 1", accepted)
			}
			if n := a.Dropped(); n != 0 {
				t.Errorf("Dropped = %d, want 0", n)
			}
		})
	}
}

// TestFabricDialAbandonedByDrainOrClose: frames queued behind a dial that
// keeps failing are never lost silently. A Drain stops the dial — a leaving
// process waits out no unreachable peer — and reports every frame in
// QueuedAtClose; a Close counts every frame; either way each is in
// Dropped(), so sends == delivered (none) + Dropped().
func TestFabricDialAbandonedByDrainOrClose(t *testing.T) {
	for _, fabric := range fabrics {
		for _, stop := range []string{"drain", "close"} {
			t.Run(fabric+"/"+stop, func(t *testing.T) {
				addr, _ := lateFabricPeer(t, fabric) // never comes up
				a, _ := newFabricTransport(t, fabric, []graph.NodeID{0})
				a.SetPeers(map[graph.NodeID]string{1: addr})

				const sends = 20
				for i := 0; i < sends; i++ {
					if err := a.Send(testMsg(1, MsgRequest, i), 0); err != nil {
						t.Fatal(err)
					}
				}
				time.Sleep(60 * time.Millisecond) // the writer has failed a dial or two
				switch stop {
				case "drain":
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					rep, err := a.Drain(ctx)
					if err != nil {
						t.Fatalf("Drain: %v", err)
					}
					if rep.QueuedAtClose != sends || rep.PendingAtClose != 0 {
						t.Errorf("drain report %+v, want QueuedAtClose %d, PendingAtClose 0", rep, sends)
					}
				case "close":
					if err := a.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if n := a.Dropped(); n != sends {
					t.Errorf("Dropped = %d, want %d", n, sends)
				}
			})
		}
	}
}

// wirePeer listens on the given fabric and decodes the data sub-messages it
// receives onto the returned channel, acking nothing — the raw view of what
// a sender put on the wire.
func wirePeer(t *testing.T, fabric string) (addr string, got <-chan wireMessage) {
	ch := make(chan wireMessage, 1024)
	addr, stop := quietFabricPeer(t, fabric, func(c net.Conn) {
		defer c.Close()
		var dec wireDec
		br := bufio.NewReader(c)
		for {
			_, msgs, err := dec.readFrameMulti(br)
			if err != nil {
				return
			}
			for _, m := range msgs {
				m.typ, m.data = nil, nil
				ch <- m
			}
		}
	})
	t.Cleanup(stop)
	return addr, ch
}

// TestFabricLatencyOnTheWire is the deterministic half of the one-delay-stage
// contract: a remote message carries the delay its sender passed, and the
// receiving transport hands exactly that delay to its sink, whose calendar
// applies it. FaultTransport jitter rides the same field, and so does a
// duplicate's trailing 1+jitter ticks: the receiver delivers both copies,
// each with its own delay, and the raw wire carries them in that order.
func TestFabricLatencyOnTheWire(t *testing.T) {
	const tick = time.Millisecond
	cfg := FaultConfig{Seed: 11, Duplicate: 1, JitterTicks: 3, Tick: tick}
	const sends = 16
	msgs := make([]Message, sends)
	base := make([]time.Duration, sends)
	for i := range msgs {
		msgs[i] = testMsg(1, MsgRequest, i)
		msgs[i].EdgeID = i
		base[i] = time.Duration(i%5) * tick
	}
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			type arrival struct {
				msg   Message
				delay time.Duration
			}
			a, _ := newFabricTransport(t, fabric, []graph.NodeID{0})
			b, baddr := newFabricTransport(t, fabric, []graph.NodeID{1})
			defer b.Close()
			arrivals := make(chan arrival, 2*sends)
			b.SetSink(func(m Message, d time.Duration) bool {
				arrivals <- arrival{m, d}
				return true
			})
			a.SetPeers(map[graph.NodeID]string{1: baddr})
			ft := NewFaultTransport(a, cfg)
			defer ft.Close()

			jittered := 0
			for i, m := range msgs {
				if ft.jitterOf(m, 0) > 0 {
					jittered++
				}
				if err := ft.Send(m, base[i]); err != nil {
					t.Fatal(err)
				}
			}
			if jittered == 0 || jittered == sends {
				t.Fatalf("jitter drew %d of %d nonzero: the plan does not exercise it", jittered, sends)
			}
			// One stream carries both copies in send order, so each message's
			// original reaches the sink before its copy.
			delays := make([][]time.Duration, sends)
			for n := 0; n < 2*sends; n++ {
				select {
				case got := <-arrivals:
					i := got.msg.SentTick
					delays[i] = append(delays[i], got.delay)
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d copies reached the sink", n, 2*sends)
				}
			}
			for i, ds := range delays {
				orig := base[i] + time.Duration(ft.jitterOf(msgs[i], 0))*tick
				dup := orig + time.Duration(1+ft.jitterOf(msgs[i], 1))*tick
				if len(ds) != 2 || ds[0] != orig || ds[1] != dup {
					t.Errorf("message %d: sink delays %v, want [%v %v]", i, ds, orig, dup)
				}
			}

			// The raw wire: each message twice, the copy later in the stream
			// and trailing the original by 1+jitter ticks.
			waddr, wire := wirePeer(t, fabric)
			a2, _ := newFabricTransport(t, fabric, []graph.NodeID{0})
			a2.SetPeers(map[graph.NodeID]string{1: waddr})
			ft2 := NewFaultTransport(a2, cfg)
			defer ft2.Close()
			for i, m := range msgs {
				if err := ft2.Send(m, base[i]); err != nil {
					t.Fatal(err)
				}
			}
			seen := make([][]wireMessage, sends)
			for n := 0; n < 2*sends; n++ {
				select {
				case w := <-wire:
					seen[w.SentTick] = append(seen[w.SentTick], w)
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d sub-messages on the wire", n, 2*sends)
				}
			}
			for i, ws := range seen {
				orig := base[i] + time.Duration(ft2.jitterOf(msgs[i], 0))*tick
				dup := orig + time.Duration(1+ft2.jitterOf(msgs[i], 1))*tick
				if len(ws) != 2 {
					t.Fatalf("message %d: wire copies %+v", i, ws)
				}
				if got := time.Duration(ws[0].DelayUS) * time.Microsecond; got != orig {
					t.Errorf("message %d: original's wire delay %v, want %v", i, got, orig)
				}
				if got := time.Duration(ws[1].DelayUS) * time.Microsecond; got != dup {
					t.Errorf("message %d: duplicate's wire delay %v, want %v", i, got, dup)
				}
			}
		})
	}
}
