// Command gossipd starts one daemon of a live gossip cluster: it hosts a
// subset of a graph's nodes behind a TCP listener, and optionally a unix
// socket (-listen-unix), and runs a protocol to completion together with its
// peer daemons. Every daemon is started with the same graph flags and the
// same full peer map; they may start in any order (the transport retries
// dials while peers come up).
//
// A two-process push-pull run over the 64-node ring of cliques:
//
//	gossipd -graph ringcliques -k 8 -s 8 -latency 4 \
//	    -listen 127.0.0.1:7000 -nodes 0-31 \
//	    -peers 0-31=127.0.0.1:7000,32-63=127.0.0.1:7001 &
//	gossipd -graph ringcliques -k 8 -s 8 -latency 4 \
//	    -listen 127.0.0.1:7001 -nodes 32-63 \
//	    -peers 0-31=127.0.0.1:7000,32-63=127.0.0.1:7001
//
// A peer address picks the fabric: "host:port" dials TCP, "unix://PATH"
// dials the unix socket a co-located daemon opened with -listen-unix PATH,
// e.g. -peers 0-31=unix:///tmp/d0.sock,32-63=unix:///tmp/d1.sock.
//
// Graphs: every family gossipsim builds (see -graph's help), among them
// ringchords (latency-1 ring plus random chords with latencies in
// [1,-latmax], O(n·d) — the million-node family), or -load FILE (.json as
// graphio JSON, anything else as an edge list).
// Protocols: pushpull, flood, rr.
//
// Frames are a compact length-prefixed binary format, and everything bound
// for the same peer daemon within one writer drain coalesces into FrameBatch
// super-frames under one frame header; the peer acks with one cumulative
// count per connection, and the byte stream is the only retransmitter.
// -flushwindow widens those batches by waiting that long after the first
// queued frame before flushing — more messages per syscall at the cost of up
// to that much added delivery latency.
//
// -pprof ADDR serves net/http/pprof on ADDR so cluster-scale runs can be
// profiled in place (see PERFORMANCE.md).
//
// Hosted nodes run on a sharded event loop (one shard per CPU core by
// default), so one daemon comfortably hosts 100k+ nodes. -shards sets the
// worker count directly; -nodes-per-shard derives it from the hosted node
// count instead (the two are mutually exclusive).
//
// Chaos flags inject deterministic faults (same -seed + same flags = same
// faults on every daemon): -drop and -dup are per-message probabilities,
// -jitter adds up to that many ticks of extra delay, -crash takes
// "node=sweep" (permanent) or "node=sweep:sweep2" (recover at sweep2),
// counting the shard sweeps of the node's runtime (held ones included, so a
// sweep is about a tick), and -partition cuts all edges between two node
// sets for a tick window:
//
//	-partition "50:150:0-31/32-63"   # cut halves during ticks [50,150)
//	-partition "50:0:0-31/32-63"     # ... and never heal (until = 0)
//
// Separate multiple partition epochs with ";".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gossip"
	"gossip/internal/graphio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gossipd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gossipd", flag.ContinueOnError)
	var spec graphio.Spec
	spec.Register(fs)
	var (
		proto     = fs.String("proto", "pushpull", "protocol: pushpull, flood or rr")
		source    = fs.Int("source", 0, "broadcast source node")
		listen    = fs.String("listen", "127.0.0.1:0", "TCP listen address for this daemon")
		listenFD  = fs.Int("listen-fd", 0, "inherit the TCP listener from this file descriptor instead of binding -listen (supervisors pass a pre-bound socket so reserved ports cannot be stolen; 0 = bind -listen)")
		listenUDS = fs.String("listen-unix", "", "additionally listen on a unix socket at this path for co-located peers (empty = off)")
		nodesSpec = fs.String("nodes", "", "nodes hosted here, e.g. 0-31 or 0,5,9 (empty = all)")
		peersSpec = fs.String("peers", "", "peer map, e.g. 0-31=host:7000,32-63=host:7001; a co-located peer may be addressed by its unix socket, e.g. 32-63=unix:///tmp/d1.sock")
		tick      = fs.Duration("tick", gossip.DefaultLiveTick, "wall-clock duration of one round")
		maxTicks  = fs.Int("maxticks", 0, "budget in sweeps (about ticks), held ones included (0 = default)")
		linger    = fs.Duration("linger", 2*time.Second, "keep serving peers this long after local completion")
		drainWait = fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown deadline: how long SIGTERM/SIGINT waits for queues to flush before closing anyway")
		crashSpec = fs.String("crash", "", "crash injection, e.g. 3=10,7=25:60 (node=sweep[:recover-sweep], counting the node's shard sweeps, held ones included)")
		drop      = fs.Float64("drop", 0, "per-message drop probability in [0,1]")
		dup       = fs.Float64("dup", 0, "per-message duplication probability in [0,1]")
		jitter    = fs.Int("jitter", 0, "extra delivery delay of up to this many ticks per message")
		partSpec  = fs.String("partition", "", "link cuts, e.g. 50:150:0-31/32-63 (from:until:setA/setB; until 0 = never heal; ';' separates epochs)")
		faultSeed = fs.Uint64("faultseed", 0, "fault-decision seed (0 = use -seed)")
		rrK       = fs.Int("rrk", 0, "RR broadcast latency bound k (0 = the graph's max edge latency)")
		flushWin  = fs.Duration("flushwindow", 0, "wait this long after the first queued frame before flushing, widening write batches (0 = flush when the queue drains)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address, e.g. 127.0.0.1:6060 (empty = off)")
		shards    = fs.Int("shards", 0, "event-loop shards hosted nodes are multiplexed onto (0 = one per CPU core)")
		nodesPer  = fs.Int("nodes-per-shard", 0, "size shards by node count instead: ceil(hosted/this) shards (0 = use -shards)")

		joinSpec = fs.String("join", "", "enable SWIM membership, bootstrapping from these seed nodes, e.g. 0 or 0,32 (empty = membership off)")
		probeIvl = fs.Int("probe-interval", 0, "membership probe interval in ticks (0 = default)")
		suspMult = fs.Int("suspicion-mult", 0, "membership suspicion timeout multiplier (0 = default)")
		maxPiggy = fs.Int("max-piggyback", 0, "membership deltas piggybacked per packet (0 = default)")
		memDump  = fs.Bool("memberdump", false, "print every hosted node's final membership table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		defer pln.Close()
		// The blank net/http/pprof import registers its handlers on the
		// default mux; serve that.
		go http.Serve(pln, nil)
		fmt.Fprintf(out, "pprof: listening on %s\n", pln.Addr())
	}

	g, err := spec.Build()
	if err != nil {
		return err
	}
	hosted, err := parseNodeSet(*nodesSpec, g.N())
	if err != nil {
		return fmt.Errorf("-nodes: %w", err)
	}
	peers, err := parsePeers(*peersSpec, g.N())
	if err != nil {
		return fmt.Errorf("-peers: %w", err)
	}
	crashes, err := parseCrashes(*crashSpec, g.N())
	if err != nil {
		return fmt.Errorf("-crash: %w", err)
	}
	phases, err := parsePartitions(*partSpec, g)
	if err != nil {
		return fmt.Errorf("-partition: %w", err)
	}

	if *flushWin < 0 {
		return fmt.Errorf("-flushwindow: must be >= 0")
	}
	nShards, err := resolveShards(*shards, *nodesPer, len(hosted))
	if err != nil {
		return err
	}

	var tr *gossip.LiveTCPTransport
	if *listenFD > 0 {
		f := os.NewFile(uintptr(*listenFD), "listen-fd")
		ln, lerr := net.FileListener(f)
		f.Close()
		if lerr != nil {
			return fmt.Errorf("-listen-fd %d: %w", *listenFD, lerr)
		}
		tr, err = gossip.NewLiveTCPTransportFromListener(ln, hosted)
	} else {
		tr, err = gossip.NewLiveTCPTransport(*listen, hosted)
	}
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	defer tr.Close()
	if *listenUDS != "" {
		if err := tr.ListenUnix(*listenUDS); err != nil {
			return fmt.Errorf("-listen-unix: %w", err)
		}
	}
	tr.SetFlushWindow(*flushWin)
	// Hosted nodes route in-process; map them to our own address so peer
	// validation below only flags genuinely unreachable nodes.
	for _, u := range hosted {
		if _, ok := peers[u]; !ok {
			peers[u] = tr.Addr().String()
		}
	}
	var missing []int
	for u := 0; u < g.N(); u++ {
		if _, ok := peers[gossip.NodeID(u)]; !ok {
			missing = append(missing, u)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("no peer address for nodes %v (cover every node with -peers or -nodes)", missing)
	}
	tr.SetPeers(peers)

	// Graceful shutdown: SIGTERM or SIGINT interrupts the run — nodes
	// broadcast a membership leave and stop initiating — then the transport
	// drains its queues under -drain-timeout before closing.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	interrupt := make(chan struct{})
	relayDone := make(chan struct{})
	defer close(relayDone)
	go func() {
		select {
		case <-sigCh:
			close(interrupt)
		case <-relayDone:
		}
	}()

	opts := gossip.LiveOptions{
		Seed:      spec.Seed,
		Tick:      *tick,
		MaxTicks:  *maxTicks,
		Nodes:     hosted,
		Crashes:   crashes,
		Linger:    *linger,
		Interrupt: interrupt,
		Shards:    nShards,
	}
	if *joinSpec != "" {
		seeds, err := parseNodeSet(*joinSpec, g.N())
		if err != nil {
			return fmt.Errorf("-join: %w", err)
		}
		opts.Membership = &gossip.LiveMembership{
			Seeds:         seeds,
			ProbeInterval: *probeIvl,
			SuspicionMult: *suspMult,
			MaxPiggyback:  *maxPiggy,
		}
	} else if *memDump {
		return fmt.Errorf("-memberdump requires membership (-join)")
	}
	if *drop > 0 || *dup > 0 || *jitter > 0 || len(phases) > 0 {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = spec.Seed
		}
		opts.Faults = &gossip.LiveFaultConfig{
			Seed:        fseed,
			Drop:        *drop,
			Duplicate:   *dup,
			JitterTicks: *jitter,
			Phases:      phases,
		}
	}

	var lp gossip.LiveProtocol
	switch *proto {
	case "pushpull":
		lp = gossip.LivePushPull(gossip.NodeID(*source))
	case "flood":
		lp = gossip.LiveFlood(gossip.NodeID(*source))
	case "rr":
		k := *rrK
		if k <= 0 {
			for _, e := range g.Edges() {
				if e.Latency > k {
					k = e.Latency
				}
			}
		}
		lp, err = gossip.LiveRRBroadcast(g, k, 0, opts)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown protocol %q (want pushpull, flood or rr)", *proto)
	}

	fmt.Fprintf(out, "gossipd: graph=%s nodes=%d hosting=%d listen=%s proto=%s seed=%d tick=%v\n",
		spec.Name(), g.N(), len(hosted), tr.Addr(), *proto, spec.Seed, *tick)

	res, err := gossip.RunLiveTransport(g, lp, tr, opts)
	informed := 0
	for _, u := range hosted {
		if res.Done[u] {
			informed++
		}
	}
	fmt.Fprintf(out, "completed=%v interrupted=%v informed=%d/%d ticks=%d messages=%d bytes=%d wall=%v dropped=%d\n",
		res.Completed, res.Interrupted, informed, len(hosted), res.Metrics.Ticks, res.Metrics.Messages(),
		res.Metrics.Bytes, res.Metrics.Wall.Round(time.Millisecond), tr.Dropped())
	if f := res.Faults; f.Dropped() > 0 || f.InjectedDups > 0 || len(f.Phases) > 0 {
		fmt.Fprintf(out, "faults: injected-drops=%d partition-drops=%d transport-drops=%d dups=%d jittered=%d partitions=%d\n",
			f.InjectedDrops, f.PartitionDrops, f.TransportDrops, f.InjectedDups, f.Jittered, len(f.Phases))
	}
	if opts.Membership != nil {
		printMembership(out, res, hosted, *memDump)
	}
	// Always drain before exit — on interrupt this is the graceful-shutdown
	// flush; after a completed run it should be instant and clean, and the
	// report line is what cluster harnesses (cmd/gossipctl) assert on.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	rep, derr := tr.Drain(ctx)
	cancel()
	fmt.Fprintf(out, "drain: clean=%v queued=%d pending=%d wall=%v\n",
		rep.Clean, rep.QueuedAtClose, rep.PendingAtClose,
		rep.Wall.Round(time.Millisecond))
	// The wire ledger, printed after the drain so the tail of the ack traffic
	// is included. local-frames/local-bytes are the subset that rode a unix
	// socket instead of TCP — cluster harnesses assert on them to prove the
	// fast path was actually taken.
	fmt.Fprintf(out, "wire: frames=%d bytes=%d local-frames=%d local-bytes=%d\n",
		tr.WireFramesOut(), tr.WireBytesOut(), tr.WireLocalFrames(), tr.WireLocalBytes())
	if derr != nil && !errors.Is(derr, context.DeadlineExceeded) {
		return derr
	}
	return err
}

// printMembership summarizes the run's final membership views: one aggregate
// line always, and with -memberdump one table line per hosted node.
func printMembership(out io.Writer, res gossip.LiveResult, hosted []gossip.NodeID, dump bool) {
	alive, suspect, dead := 0, 0, 0
	for _, u := range hosted {
		for _, up := range res.Members[u] {
			switch up.St {
			case gossip.MemberAlive:
				alive++
			case gossip.MemberSuspect:
				suspect++
			case gossip.MemberDead:
				dead++
			}
		}
	}
	fmt.Fprintf(out, "membership: packets=%d bytes=%d view-entries alive=%d suspect=%d dead=%d\n",
		res.Metrics.MemberPackets, res.Metrics.MemberBytes, alive, suspect, dead)
	if !dump {
		return
	}
	for _, u := range hosted {
		var b strings.Builder
		fmt.Fprintf(&b, "member table %d:", u)
		for _, up := range res.Members[u] {
			fmt.Fprintf(&b, " %d=%s/%d", up.Node, up.St, up.Inc)
		}
		fmt.Fprintln(out, b.String())
	}
}

// resolveShards turns the -shards / -nodes-per-shard flag pair into a shard
// count for LiveOptions. The flags are mutually exclusive: -shards sets the
// worker count directly, -nodes-per-shard derives it from the hosted node
// count (ceil(hosted/nps)); zero for both defers to the runtime default (one
// shard per CPU core).
func resolveShards(shards, nodesPer, hosted int) (int, error) {
	if shards < 0 {
		return 0, fmt.Errorf("-shards: must be >= 0")
	}
	if nodesPer < 0 {
		return 0, fmt.Errorf("-nodes-per-shard: must be >= 0")
	}
	if shards > 0 && nodesPer > 0 {
		return 0, fmt.Errorf("-shards and -nodes-per-shard are mutually exclusive")
	}
	if nodesPer > 0 {
		n := (hosted + nodesPer - 1) / nodesPer
		if n < 1 {
			n = 1
		}
		return n, nil
	}
	return shards, nil
}

// parseNodeSet parses "0-31", "0,5,9", or a mix; empty means all n nodes.
func parseNodeSet(spec string, n int) ([]gossip.NodeID, error) {
	if spec == "" {
		all := make([]gossip.NodeID, n)
		for u := range all {
			all[u] = gossip.NodeID(u)
		}
		return all, nil
	}
	var ids []gossip.NodeID
	seen := make(map[gossip.NodeID]bool)
	for _, part := range strings.Split(spec, ",") {
		lo, hi, err := parseRange(part)
		if err != nil {
			return nil, err
		}
		for u := lo; u <= hi; u++ {
			if u < 0 || u >= n {
				return nil, fmt.Errorf("node %d out of range [0,%d)", u, n)
			}
			if seen[gossip.NodeID(u)] {
				return nil, fmt.Errorf("node %d listed twice", u)
			}
			seen[gossip.NodeID(u)] = true
			ids = append(ids, gossip.NodeID(u))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// parsePeers parses "0-31=host:port,32-63=unix:///path" into a full address
// map. Addresses pass through as given; the transport picks the fabric.
func parsePeers(spec string, n int) (map[gossip.NodeID]string, error) {
	peers := make(map[gossip.NodeID]string)
	if spec == "" {
		return peers, nil
	}
	for _, part := range strings.Split(spec, ",") {
		ids, addr, ok := strings.Cut(part, "=")
		if !ok || addr == "" {
			return nil, fmt.Errorf("entry %q is not nodes=addr", part)
		}
		lo, hi, err := parseRange(ids)
		if err != nil {
			return nil, err
		}
		for u := lo; u <= hi; u++ {
			if u < 0 || u >= n {
				return nil, fmt.Errorf("node %d out of range [0,%d)", u, n)
			}
			peers[gossip.NodeID(u)] = addr
		}
	}
	return peers, nil
}

// parseCrashes parses "3=10,7=25:60" into node→crash plan: "node=tick"
// crashes permanently, "node=tick:tick2" rejoins with cleared state at tick2.
func parseCrashes(spec string, n int) (map[gossip.NodeID]gossip.LiveCrash, error) {
	if spec == "" {
		return nil, nil
	}
	crashes := make(map[gossip.NodeID]gossip.LiveCrash)
	for _, part := range strings.Split(spec, ",") {
		node, tickStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("entry %q is not node=tick[:recover-tick]", part)
		}
		u, err := strconv.Atoi(node)
		if err != nil || u < 0 || u >= n {
			return nil, fmt.Errorf("bad node in %q", part)
		}
		atStr, recStr, hasRec := strings.Cut(tickStr, ":")
		t, err := strconv.Atoi(atStr)
		if err != nil || t < 1 {
			return nil, fmt.Errorf("bad tick in %q (must be >= 1)", part)
		}
		plan := gossip.LiveCrash{At: t}
		if hasRec {
			r, err := strconv.Atoi(recStr)
			if err != nil || r <= t {
				return nil, fmt.Errorf("bad recovery tick in %q (must be > crash tick)", part)
			}
			plan.RecoverAt = r
		}
		crashes[gossip.NodeID(u)] = plan
	}
	return crashes, nil
}

// parsePartitions parses "from:until:setA/setB" epochs separated by ";" into
// fault phases, each cutting the epoch's edge set (derived from the graph)
// for its whole window.
func parsePartitions(spec string, g *gossip.Graph) ([]gossip.LiveFaultPhase, error) {
	if spec == "" {
		return nil, nil
	}
	var parts []gossip.LiveFaultPhase
	for _, epoch := range strings.Split(spec, ";") {
		fields := strings.SplitN(epoch, ":", 3)
		if len(fields) != 3 {
			return nil, fmt.Errorf("epoch %q is not from:until:setA/setB", epoch)
		}
		from, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil || from < 0 {
			return nil, fmt.Errorf("bad from tick in %q", epoch)
		}
		until, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil || (until != 0 && until <= from) {
			return nil, fmt.Errorf("bad until tick in %q (must be > from, or 0 = never heal)", epoch)
		}
		aSpec, bSpec, ok := strings.Cut(fields[2], "/")
		if !ok {
			return nil, fmt.Errorf("epoch %q missing setA/setB", epoch)
		}
		a, err := parseNodeSet(aSpec, g.N())
		if err != nil {
			return nil, fmt.Errorf("epoch %q side A: %w", epoch, err)
		}
		b, err := parseNodeSet(bSpec, g.N())
		if err != nil {
			return nil, fmt.Errorf("epoch %q side B: %w", epoch, err)
		}
		edges := gossip.LiveCutBetween(g, a, b)
		if len(edges) == 0 {
			return nil, fmt.Errorf("epoch %q cuts no edges", epoch)
		}
		parts = append(parts, gossip.LiveFaultPhase{From: from, Until: until, Cut: edges})
	}
	return parts, nil
}

// parseRange parses "5" or "3-9" into an inclusive [lo, hi] pair.
func parseRange(s string) (lo, hi int, err error) {
	if a, b, ok := strings.Cut(s, "-"); ok {
		lo, err = strconv.Atoi(strings.TrimSpace(a))
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q", s)
		}
		hi, err = strconv.Atoi(strings.TrimSpace(b))
		if err != nil || hi < lo {
			return 0, 0, fmt.Errorf("bad range %q", s)
		}
		return lo, hi, nil
	}
	lo, err = strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, 0, fmt.Errorf("bad node %q", s)
	}
	return lo, lo, nil
}
