package live

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gossip/internal/graph"
)

// fabrics are the connection families under test. Every fabric speaks the
// identical wire protocol through the same stream core, so every test here
// is a parity check: behavior proven for TCP must hold verbatim.
var fabrics = []string{"tcp", "unix"}

// newFabricTransport builds one transport of the given fabric hosting the
// given nodes, returning it and the address peers should dial.
func newFabricTransport(t testing.TB, fabric string, hosted []graph.NodeID, buffer int) (*StreamTransport, string) {
	t.Helper()
	switch fabric {
	case "tcp":
		tr, err := NewTCPTransport("127.0.0.1:0", hosted, buffer)
		if err != nil {
			t.Fatal(err)
		}
		return tr, tr.Addr().String()
	case "unix":
		// Short MkdirTemp dir, not t.TempDir(): sun_path caps at ~108 bytes
		// and long test names would overflow it.
		dir, err := os.MkdirTemp("", "gsp")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		path := filepath.Join(dir, "d.sock")
		tr, err := NewUnixTransport(path, hosted, buffer)
		if err != nil {
			t.Fatal(err)
		}
		return tr, unixScheme + path
	default:
		t.Fatalf("unknown fabric %q", fabric)
		return nil, ""
	}
}

// TestAddrIsLocalHost pins the auto-upgrade predicate: loopback and
// localhost qualify, remote IPs and unparseable hosts do not.
func TestAddrIsLocalHost(t *testing.T) {
	cases := map[string]bool{
		"127.0.0.1:9000":    true,
		"localhost:9000":    true,
		"[::1]:9000":        true,
		"192.0.2.17:9000":   false, // TEST-NET, never assigned locally
		"example.com:9000":  false, // non-localhost hostnames are not resolved
		"not-an-address":    false,
		"unix:///tmp/x.sck": false,
	}
	for addr, want := range cases {
		if got := addrIsLocalHost(addr); got != want {
			t.Errorf("addrIsLocalHost(%q) = %v, want %v", addr, got, want)
		}
	}
}

// TestFabricRoundTripCountsLocal sends over each fabric and checks delivery,
// a clean drain with exact zero close-time accounting, and that the
// WireLocal* counters attribute traffic to local fabrics only.
func TestFabricRoundTripCountsLocal(t *testing.T) {
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			a, _ := newFabricTransport(t, fabric, []graph.NodeID{0}, 64)
			b, baddr := newFabricTransport(t, fabric, []graph.NodeID{1}, 64)
			defer b.Close()
			a.SetPeers(map[graph.NodeID]string{1: baddr})

			const sends = 32
			for i := 0; i < sends; i++ {
				if err := a.Send(testMsg(1, MsgRequest, i), 0); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < sends; i++ {
				recvWithin(t, b.Recv(1), 5*time.Second)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rep, err := a.Drain(ctx)
			if err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if !rep.Clean || rep.QueuedAtClose != 0 || rep.PendingAtClose != 0 || rep.AbandonedTimers != 0 {
				t.Fatalf("drain not exactly clean on %s: %+v", fabric, rep)
			}
			local := fabric != "tcp"
			if gotFrames, gotBytes := a.WireLocalFrames(), a.WireLocalBytes(); local {
				if gotFrames == 0 || gotBytes == 0 {
					t.Errorf("local fabric %s counted no local traffic: frames=%d bytes=%d", fabric, gotFrames, gotBytes)
				}
				if gotFrames > a.WireFramesOut() || gotBytes > a.WireBytesOut() {
					t.Errorf("local counters exceed totals: frames %d/%d bytes %d/%d",
						gotFrames, a.WireFramesOut(), gotBytes, a.WireBytesOut())
				}
			} else if gotFrames != 0 || gotBytes != 0 {
				t.Errorf("tcp counted local traffic: frames=%d bytes=%d", gotFrames, gotBytes)
			}
		})
	}
}

// TestFabricAutoUpgradeToUnix is the co-location fast path: both transports
// listen on TCP, the peer advertises a unix socket for its TCP address via
// SetPeerSockets, and the dialer must route every frame over the socket —
// proven by the local counters — without any peer-map change.
func TestFabricAutoUpgradeToUnix(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	dir, err := os.MkdirTemp("", "gsp")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "b.sock")
	if err := b.ListenUnix(sock); err != nil {
		t.Fatal(err)
	}
	if got := b.UnixAddr(); got != sock {
		t.Fatalf("UnixAddr = %q, want %q", got, sock)
	}

	a.SetPeers(map[graph.NodeID]string{1: b.Addr().String()})
	a.SetPeerSockets(map[string]string{b.Addr().String(): sock})

	if err := a.Send(testMsg(1, MsgRequest, 1), 0); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b.Recv(1), 5*time.Second)
	if a.WireLocalFrames() == 0 {
		t.Fatal("advertised socket for a local peer was not dialed")
	}
	if a.WireLocalFrames() != a.WireFramesOut() {
		t.Errorf("some frames leaked onto TCP: local=%d total=%d", a.WireLocalFrames(), a.WireFramesOut())
	}
}

// TestFabricMixedInterop runs one cluster across both fabrics at once: a
// TCP-listening transport and a unix-listening transport exchange a full
// mesh of messages. The wire format is fabric-invariant, so everything
// interoperates through one peer map.
func TestFabricMixedInterop(t *testing.T) {
	trs := make([]*StreamTransport, len(fabrics))
	addrs := make(map[graph.NodeID]string, len(fabrics))
	for i, fabric := range fabrics {
		tr, addr := newFabricTransport(t, fabric, []graph.NodeID{graph.NodeID(i)}, 64)
		defer tr.Close()
		trs[i] = tr
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
			recvWithin(t, trs[to].Recv(graph.NodeID(to)), 5*time.Second)
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
// the retransmission path must redial the fresh socket and deliver.
func TestFabricUnixRedialAfterSocketRemoval(t *testing.T) {
	dir, err := os.MkdirTemp("", "gsp")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "d.sock")

	a, err := NewUnixTransport(filepath.Join(dir, "a.sock"), []graph.NodeID{0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUnixTransport(sock, []graph.NodeID{1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeers(map[graph.NodeID]string{1: unixScheme + sock})
	a.SetRetransmit(30*time.Millisecond, 8)

	if err := a.Send(testMsg(1, MsgRequest, 1), 0); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b.Recv(1), 5*time.Second)

	// Daemon restart: old listener (and its socket file) gone, new one at
	// the same path, pooled connection severed under the sender.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := NewUnixTransport(sock, []graph.NodeID{1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	if err := a.Send(testMsg(1, MsgRequest, 2), 0); err != nil {
		t.Fatal(err)
	}
	got := recvWithin(t, b2.Recv(1), 5*time.Second)
	if got.SentTick != 2 {
		t.Fatalf("unexpected arrival %+v", got)
	}
	if a.Dropped() != 0 {
		t.Errorf("Dropped = %d after successful redial", a.Dropped())
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
	live, err := NewUnixTransport(sock, []graph.NodeID{0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUnixTransport(sock, []graph.NodeID{1}, 8); err == nil {
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
	tr, err := NewUnixTransport(sock, []graph.NodeID{0}, 8)
	if err != nil {
		t.Fatalf("stale socket not reclaimed: %v", err)
	}
	tr.Close()
}

// TestFabricDrainPendingParity stages the same un-drainable state on every
// fabric — one armed delivery timer plus three unacked sends against a peer
// that accepts but never acks — and requires the DrainReport close-time
// accounting to be exactly equal across them.
func TestFabricDrainPendingParity(t *testing.T) {
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			tr, _ := newFabricTransport(t, fabric, []graph.NodeID{0}, 64)
			addr, stop := quietFabricPeer(t, fabric)
			defer stop()
			tr.SetPeers(map[graph.NodeID]string{1: addr})
			tr.SetRetransmit(time.Hour, 4)

			const pendingSends = 3
			if err := tr.Send(testMsg(1, MsgRequest, 0), time.Hour); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pendingSends; i++ {
				if err := tr.Send(testMsg(1, MsgRequest, i+1), 0); err != nil {
					t.Fatal(err)
				}
			}
			if !pollUntil(5*time.Second, func() bool { return tr.pendingCount() == pendingSends }) {
				t.Fatalf("pendingCount = %d, want %d", tr.pendingCount(), pendingSends)
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
			if rep.PendingAtClose != pendingSends {
				t.Errorf("PendingAtClose = %d, want %d", rep.PendingAtClose, pendingSends)
			}
			if rep.AbandonedTimers != 1 {
				t.Errorf("AbandonedTimers = %d, want 1", rep.AbandonedTimers)
			}
		})
	}
}

// quietFabricPeer returns an address on the given fabric that accepts
// connections and discards all input — so frames transmit but are never
// acked, pinning the sender's pend set.
func quietFabricPeer(t testing.TB, fabric string) (addr string, stop func()) {
	t.Helper()
	switch fabric {
	case "tcp":
		a, _, closeAll := quietListener(t)
		return a, closeAll
	case "unix":
		dir, err := os.MkdirTemp("", "gsp")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "q.sock")
		l, err := listenUnixSocket(path)
		if err != nil {
			t.Fatal(err)
		}
		go discardAccepts(l)
		return unixScheme + path, func() { l.Close(); os.RemoveAll(dir) }
	default:
		t.Fatalf("unknown fabric %q", fabric)
		return "", nil
	}
}

// discardAccepts drains a listener: every accepted connection's input is
// read and thrown away, so the dialer's frames transmit but nothing answers.
func discardAccepts(l net.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go io.Copy(io.Discard, c)
	}
}

// TestFaultDeterministicAcrossFabrics is the chaos-parity check for the
// fabrics: the identical fault plan over the identical message schedule must
// produce the identical injected-fault counters, the identical per-phase
// rows and the identical arrival multiset whether the cluster's links are
// TCP or unix sockets. Fault decisions are a PRF of message identity taken
// above the transport, and the stream core is fabric-blind, so any
// divergence means a fabric leaked into delivery semantics. Two plans run:
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
			outcomes := make(map[string]outcome, len(fabrics))
			for _, fabric := range fabrics {
				got, rep, phases := runScriptedFaults(t, fabric, g, feed, cfg)
				outcomes[fabric] = outcome{got, rep, phases}
			}

			ref := outcomes["tcp"]
			if ref.rep.InjectedDrops == 0 || ref.rep.Jittered == 0 || ref.rep.PartitionDrops == 0 {
				t.Errorf("fault plan injected nothing on some axis: %+v", ref.rep)
			}
			for i, row := range ref.phases {
				if row.CutDrops+row.AsymDrops+row.Delayed == 0 {
					t.Errorf("phase %d injected nothing: %+v", i, row)
				}
			}
			for _, fabric := range fabrics[1:] {
				o := outcomes[fabric]
				if o.rep != ref.rep {
					t.Errorf("injected fault counters diverge on %s:\ntcp: %+v\n%s: %+v", fabric, ref.rep, fabric, o.rep)
				}
				if !reflect.DeepEqual(o.phases, ref.phases) {
					t.Errorf("per-phase rows diverge on %s:\ntcp: %+v\n%s: %+v", fabric, ref.phases, fabric, o.phases)
				}
				if len(o.got) != len(ref.got) {
					t.Fatalf("arrival multisets differ in size: tcp=%d %s=%d", len(ref.got), fabric, len(o.got))
				}
				for k, n := range ref.got {
					if o.got[k] != n {
						t.Errorf("arrival %+v: tcp=%d %s=%d deliveries", k, n, fabric, o.got[k])
					}
				}
			}
		})
	}
}

// runScriptedFaults feeds a deterministic schedule through per-side
// FaultTransports over a two-transport cluster on the given fabric, waits
// for the reliable-delivery layer to drain, and returns the arrival multiset
// plus the summed injected-fault counters and per-phase rows.
func runScriptedFaults(t *testing.T, fabric string, g *graph.Graph, feed []Message, cfg FaultConfig) (map[arrivalKey]int, FaultCounts, []FaultPhaseReport) {
	t.Helper()
	half := g.N() / 2
	side := func(u graph.NodeID) int {
		if int(u) < half {
			return 0
		}
		return 1
	}
	var hosted [2][]graph.NodeID
	for u := 0; u < g.N(); u++ {
		hosted[side(graph.NodeID(u))] = append(hosted[side(graph.NodeID(u))], graph.NodeID(u))
	}
	var trs [2]*StreamTransport
	var fts [2]*FaultTransport
	addrs := make(map[graph.NodeID]string, g.N())
	for i := range trs {
		tr, addr := newFabricTransport(t, fabric, hosted[i], 4096)
		tr.SetRetransmit(time.Second, 8)
		trs[i] = tr
		for _, u := range hosted[i] {
			addrs[u] = addr
		}
	}
	for i := range trs {
		trs[i].SetPeers(addrs)
		fts[i] = NewFaultTransport(trs[i], cfg)
		defer fts[i].Close()
	}
	for _, m := range feed {
		if err := fts[side(m.From)].Send(m, 0); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	// Wait for delayed deliveries (jitter, the duplicate's trailing offset, a
	// slow ramp) to be scheduled and the reliable layer to drain every
	// surviving send.
	extra := 2 * (cfg.JitterTicks + 1)
	for _, p := range cfg.Phases {
		extra += p.SlowMaxTicks
	}
	time.Sleep(50*time.Millisecond + time.Duration(extra)*cfg.Tick)
	deadline := time.Now().Add(10 * time.Second)
	for (trs[0].pendingCount() != 0 || trs[1].pendingCount() != 0) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	got := make(map[arrivalKey]int)
	for u := 0; u < g.N(); u++ {
		ch := fts[side(graph.NodeID(u))].Recv(graph.NodeID(u))
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
