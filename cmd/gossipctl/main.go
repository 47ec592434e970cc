// Command gossipctl launches and supervises a multi-daemon live gossip
// cluster on one machine: it partitions a generated graph into K contiguous
// node ranges, reserves a listen address per daemon, emits the shared peer
// map, starts K gossipd processes, streams and scans their output, and
// verifies the run end to end — every daemon must report broadcast
// completion (all hosted nodes informed) and a clean drain.
//
// A 4-daemon × 2.5k-node flood over the million-node-friendly ringchords
// family:
//
//	gossipctl -gossipd ./gossipd -daemons 4 -graph ringchords -n 10000 \
//	    -chords 4 -latmax 16 -proto flood -tick 5ms -linger 2s
//
// The graph flags are gossipd's own (one graphio.Spec, forwarded with its
// Args), and they and the protocol flags reach every daemon unchanged, so
// the fleet agrees on the graph by construction. gossipctl partitions the
// graph's nodes across the daemons. For a family of exactly -n nodes
// (clique, star, path, cycle, gnp, chunglu, ringchords, t6) it takes -n as
// the count and builds nothing, so a large ringchords fleet costs it no
// generation; any other family, or a -load file, it builds or loads once to
// count the nodes.
//
// -join additionally enables SWIM membership (bootstrapping from node 0)
// and reports the aggregated view convergence. -timeout bounds the whole
// run: on expiry the fleet is killed and the run fails.
//
// Listen ports are reserved race-free: gossipctl binds each daemon's TCP
// listener itself and passes the bound socket to the child as an inherited
// descriptor (gossipd -listen-fd), so nothing can steal a port between
// reservation and listen. -local-fabric picks the intra-host transport
// between the co-located daemons: "tcp" (default) or "unix": each daemon
// also listens on a run-scoped unix socket, the shared -peers map names
// every range by its daemon's socket ("lo-hi=unix://DIR/d<i>.sock"), and
// the run fails unless every frame rode the sockets, as the daemons' final
// "wire:" ledger lines (WireLocalFrames) report.
//
// The ≥1M-node configuration from the ROADMAP (8 daemons × 125k nodes, see
// PERFORMANCE.md) is exercised by TestGossipctlMillionNodes, gated behind
// GOSSIPCTL_1M=1 because it takes minutes of wall clock on one core.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"gossip/internal/graphio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gossipctl:", err)
		os.Exit(1)
	}
}

// daemonReport is what the output scanner extracts from one daemon's stdout.
type daemonReport struct {
	started     bool // saw the gossipd banner line
	completed   bool // completed=true
	informed    int  // informed=<x>/<y>
	hosted      int
	drainClean  bool // drain: clean=true
	messages    int64
	memberOK    bool // membership: ... suspect=0 dead=0 with alive>0
	sawMember   bool
	sawWire     bool  // saw the wire: ledger line
	frames      int64 // wire: frames=<n>
	localFrames int64 // wire: local-frames=<n>
	raw         strings.Builder
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gossipctl", flag.ContinueOnError)
	var spec graphio.Spec
	spec.Register(fs)
	var (
		gossipd  = fs.String("gossipd", "gossipd", "path to the gossipd binary")
		daemons  = fs.Int("daemons", 4, "number of gossipd processes to launch")
		proto    = fs.String("proto", "flood", "protocol: pushpull, flood or rr")
		source   = fs.Int("source", 0, "broadcast source node")
		tick     = fs.Duration("tick", 2*time.Millisecond, "wall-clock duration of one round")
		maxTicks = fs.Int("maxticks", 0, "budget per daemon in shard sweeps, held ones included, about one per tick (0 = gossipd default)")
		linger   = fs.Duration("linger", 2*time.Second, "daemon linger after local completion")
		flushWin = fs.Duration("flushwindow", 200*time.Microsecond, "daemon flush window (super-frame aggregation width)")
		nodesPer = fs.Int("nodes-per-shard", 0, "per-daemon shard sizing (0 = gossipd default)")
		join     = fs.Bool("join", false, "enable SWIM membership from seed node 0 and check convergence")
		timeout  = fs.Duration("timeout", 10*time.Minute, "kill the fleet and fail after this long")
		verbose  = fs.Bool("v", false, "stream per-daemon output, prefixed d<i>:")
		pprof0   = fs.Int("pprof-base", 0, "serve daemon i's pprof on 127.0.0.1:(base+i) (0 = off)")
		fabric   = fs.String("local-fabric", "tcp", "intra-host transport between the co-located daemons: tcp, or unix (peers are addressed by unix socket; every frame must ride the sockets)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *daemons < 1 {
		return fmt.Errorf("-daemons: must be >= 1")
	}
	n, err := spec.NodeCount()
	if err != nil {
		return err
	}
	if n < *daemons {
		return fmt.Errorf("%d nodes < -daemons %d: every daemon needs at least one node", n, *daemons)
	}
	switch *fabric {
	case "tcp", "unix":
	default:
		return fmt.Errorf("-local-fabric: %q (want tcp or unix)", *fabric)
	}

	// Contiguous partition: daemon i hosts [i·n/K, (i+1)·n/K).
	ranges := make([][2]int, *daemons)
	for i := 0; i < *daemons; i++ {
		ranges[i] = [2]int{i * n / *daemons, (i+1)*n / *daemons - 1}
	}
	// Reserve one listener per daemon and HOLD it: the bound socket is passed
	// to the daemon as an inherited descriptor (-listen-fd), so no other
	// process can steal the port between reservation and the daemon's listen
	// — the bind-then-close reservation this replaces had exactly that race.
	lns, addrs, err := reserveListeners(*daemons)
	if err != nil {
		return err
	}
	defer closeAll(lns)

	// On the unix fabric every daemon also listens on a socket in a
	// run-scoped directory, and the peer map names each range by its
	// daemon's socket, so sends between the co-located daemons skip TCP.
	var socks []string
	if *fabric == "unix" {
		dir, terr := os.MkdirTemp("", "gossipctl-")
		if terr != nil {
			return terr
		}
		defer os.RemoveAll(dir)
		for i := range ranges {
			socks = append(socks, fmt.Sprintf("%s/d%d.sock", dir, i))
		}
	}
	var peerParts []string
	for i, r := range ranges {
		addr := addrs[i]
		if socks != nil {
			addr = "unix://" + socks[i]
		}
		peerParts = append(peerParts, fmt.Sprintf("%d-%d=%s", r[0], r[1], addr))
	}
	peers := strings.Join(peerParts, ",")

	common := append(spec.Args(),
		"-proto", *proto, "-source", strconv.Itoa(*source),
		"-tick", tick.String(), "-linger", linger.String(),
		"-flushwindow", flushWin.String(),
		"-peers", peers,
	)
	if *maxTicks > 0 {
		common = append(common, "-maxticks", strconv.Itoa(*maxTicks))
	}
	if *nodesPer > 0 {
		common = append(common, "-nodes-per-shard", strconv.Itoa(*nodesPer))
	}
	if *join {
		common = append(common, "-join", "0")
	}

	fmt.Fprintf(out, "gossipctl: daemons=%d nodes=%d graph=%s proto=%s peers=%d-ranges local-fabric=%s\n",
		*daemons, n, spec.Name(), *proto, len(ranges), *fabric)

	start := time.Now()
	reports := make([]daemonReport, *daemons)
	cmds := make([]*exec.Cmd, *daemons)
	scanners := make([]*lineWriter, *daemons)
	var outMu sync.Mutex
	for i := range cmds {
		// The daemon inherits its pre-bound listener as fd 3 (ExtraFiles[0]).
		args := append([]string{"-listen-fd", "3", "-nodes", fmt.Sprintf("%d-%d", ranges[i][0], ranges[i][1])}, common...)
		if socks != nil {
			args = append(args, "-listen-unix", socks[i])
		}
		if *pprof0 > 0 {
			args = append(args, "-pprof", fmt.Sprintf("127.0.0.1:%d", *pprof0+i))
		}
		lf, err := lns[i].(*net.TCPListener).File()
		if err != nil {
			killAll(cmds[:i])
			return fmt.Errorf("daemon %d listener fd: %w", i, err)
		}
		cmd := exec.Command(*gossipd, args...)
		cmd.ExtraFiles = []*os.File{lf}
		// Scan the daemon's output through an io.Writer rather than
		// StdoutPipe + goroutine: Wait closes a StdoutPipe as soon as the
		// child exits, which silently drops any still-buffered tail lines
		// (exactly the completed=/drain:/wire: lines the checks need) when
		// the scanner lags under load. With a Writer, Wait itself blocks
		// until every byte has been delivered.
		lw := &lineWriter{rep: &reports[i], daemon: i}
		if *verbose {
			lw.echo, lw.echoMu = out, &outMu
		}
		scanners[i] = lw
		cmd.Stdout = lw
		cmd.Stderr = lw // same Writer value: exec interleaves both streams
		if err := cmd.Start(); err != nil {
			lf.Close()
			killAll(cmds[:i])
			return fmt.Errorf("start daemon %d: %w", i, err)
		}
		// The child holds its own descriptor now; release both parent copies.
		lf.Close()
		lns[i].Close()
		lns[i] = nil
		cmds[i] = cmd
	}

	// Supervise: every daemon runs to completion on its own (the protocol
	// completes, linger expires, the daemon drains and exits). On timeout the
	// fleet is killed and the run fails.
	waitErrs := make([]error, *daemons)
	done := make(chan struct{})
	go func() {
		for i, cmd := range cmds {
			waitErrs[i] = cmd.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(*timeout):
		killAll(cmds)
		<-done
		return fmt.Errorf("fleet did not finish within %v (see -v output)", *timeout)
	}
	for _, lw := range scanners {
		lw.flush()
	}

	var totalMsgs int64
	var failures []string
	for i := range reports {
		r := &reports[i]
		totalMsgs += r.messages
		switch {
		case waitErrs[i] != nil:
			failures = append(failures, fmt.Sprintf("daemon %d exited with %v:\n%s", i, waitErrs[i], r.raw.String()))
		case !r.completed:
			failures = append(failures, fmt.Sprintf("daemon %d did not complete:\n%s", i, r.raw.String()))
		case r.informed != r.hosted || r.hosted == 0:
			failures = append(failures, fmt.Sprintf("daemon %d informed %d/%d", i, r.informed, r.hosted))
		case !r.drainClean:
			failures = append(failures, fmt.Sprintf("daemon %d drain not clean:\n%s", i, r.raw.String()))
		case *join && !(r.sawMember && r.memberOK):
			failures = append(failures, fmt.Sprintf("daemon %d membership not converged:\n%s", i, r.raw.String()))
		case *fabric == "unix" && !(r.sawWire && r.localFrames > 0):
			failures = append(failures, fmt.Sprintf("daemon %d sent no frames over the local fabric (local-frames=%d):\n%s", i, r.localFrames, r.raw.String()))
		case *fabric == "unix" && r.localFrames != r.frames:
			failures = append(failures, fmt.Sprintf("daemon %d leaked frames onto TCP: local-frames=%d frames=%d", i, r.localFrames, r.frames))
		}
	}
	var localFrames, totalFrames int64
	for i := range reports {
		localFrames += reports[i].localFrames
		totalFrames += reports[i].frames
	}
	fmt.Fprintf(out, "gossipctl: completed=%v drains-clean=%v messages=%d local-frames=%d/%d wall=%v\n",
		len(failures) == 0, len(failures) == 0, totalMsgs, localFrames, totalFrames,
		time.Since(start).Round(time.Millisecond))
	if len(failures) > 0 {
		return fmt.Errorf("%d of %d daemons failed:\n%s", len(failures), *daemons, strings.Join(failures, "\n"))
	}
	return nil
}

// lineWriter receives one daemon's interleaved stdout+stderr from exec.Cmd's
// internal copier (a single goroutine per daemon, so Write needs no lock) and
// feeds each complete line to scanLine. flush delivers a trailing partial
// line after Wait has returned.
type lineWriter struct {
	rep    *daemonReport
	daemon int
	echo   io.Writer   // non-nil in -v mode
	echoMu *sync.Mutex // guards echo, shared across daemons
	part   []byte      // carry-over of an incomplete final line
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.part = append(w.part, p...)
	for {
		nl := bytes.IndexByte(w.part, '\n')
		if nl < 0 {
			return len(p), nil
		}
		w.line(string(w.part[:nl]))
		w.part = w.part[nl+1:]
	}
}

func (w *lineWriter) flush() {
	if len(w.part) > 0 {
		w.line(string(w.part))
		w.part = nil
	}
}

func (w *lineWriter) line(line string) {
	line = strings.TrimSuffix(line, "\r")
	scanLine(w.rep, line)
	if w.echo != nil {
		w.echoMu.Lock()
		fmt.Fprintf(w.echo, "d%d: %s\n", w.daemon, line)
		w.echoMu.Unlock()
	}
}

// scanLine folds one gossipd stdout line into the daemon's report.
func scanLine(r *daemonReport, line string) {
	r.raw.WriteString(line)
	r.raw.WriteByte('\n')
	switch {
	case strings.HasPrefix(line, "gossipd:"):
		r.started = true
	case strings.HasPrefix(line, "completed="):
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "completed="); ok {
				r.completed = v == "true"
			}
			if v, ok := strings.CutPrefix(f, "informed="); ok {
				fmt.Sscanf(v, "%d/%d", &r.informed, &r.hosted)
			}
			if v, ok := strings.CutPrefix(f, "messages="); ok {
				r.messages, _ = strconv.ParseInt(v, 10, 64)
			}
		}
	case strings.HasPrefix(line, "drain:"):
		r.drainClean = strings.Contains(line, "clean=true")
	case strings.HasPrefix(line, "wire:"):
		r.sawWire = true
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "frames="); ok {
				r.frames, _ = strconv.ParseInt(v, 10, 64)
			}
			if v, ok := strings.CutPrefix(f, "local-frames="); ok {
				r.localFrames, _ = strconv.ParseInt(v, 10, 64)
			}
		}
	case strings.HasPrefix(line, "membership:"):
		r.sawMember = true
		alive := 0
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "alive="); ok {
				alive, _ = strconv.Atoi(v)
			}
		}
		// Converged enough for a healthy run: views exist and nobody was
		// falsely declared dead. Transient suspicion at snapshot time is
		// normal SWIM noise (in-flight probes at run end), not divergence.
		r.memberOK = alive > 0 && strings.Contains(line, "dead=0")
	}
}

// reserveListeners binds k loopback ephemeral-port listeners and returns
// them still open, with their addresses. The listeners are handed to the
// daemons as inherited descriptors — holding the bound socket end to end is
// what closes the reserve/rebind window a bind-then-close reservation
// leaves open.
func reserveListeners(k int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, k)
	addrs := make([]string, k)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns[:i])
			return nil, nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

func killAll(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
}
