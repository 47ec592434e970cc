package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"gossip"
)

// liveCfg is one workload on the live runtime inside this process: a
// push-pull broadcast from node 0 over RingChords(n, 4, 16), hosted by one
// in-process runtime or split into contiguous halves over two runtimes that
// talk TCP on loopback. Every LiveOptions field it does not set keeps its
// default; that is the stable surface the harness is allowed to touch.
type liveCfg struct {
	name    string
	n       int
	daemons int
	tick    time.Duration
	linger  time.Duration
	lossy   bool // inject the fixed drop/duplicate/jitter plan
	paced   bool // ticks keep up: compare against the simulator, forbid loss
}

const (
	ringChords  = 4
	ringLatMax  = 16
	lossDrop    = 0.05
	lossDup     = 0.01
	lossJitter  = 2
	drainBudget = 5 * time.Second
)

var (
	inproc100k  = liveCfg{name: "inproc-100k", n: 100000, daemons: 1, tick: 200 * time.Microsecond}.workload(10)
	tcpSat      = liveCfg{name: "tcp-sat", n: 40000, daemons: 2, tick: 200 * time.Microsecond, linger: 300 * time.Millisecond}.workload(10)
	tcpSatLossy = liveCfg{name: "tcp-sat-lossy", n: 40000, daemons: 2, tick: 200 * time.Microsecond, linger: 300 * time.Millisecond,
		lossy: true}.workload(10)
	tcpPaced = liveCfg{name: "tcp-paced", n: 4096, daemons: 2, tick: 10 * time.Millisecond, linger: 300 * time.Millisecond,
		paced: true}.workload(12)
)

func (c liveCfg) workload(minReps int) workload {
	return workload{name: c.name, minReps: minReps, warmup: true, rep: c.rep, finish: c.finish}
}

// liveOutcome is what one repetition's runtimes returned, plus what the
// harness saw from outside while they ran.
type liveOutcome struct {
	results []gossip.LiveResult
	errs    []error
	hosted  [][]gossip.NodeID
	listenS float64 // listeners + SetPeers
	runS    float64 // span around the RunLive / RunLiveTransport calls
	drainS  float64
	closeS  float64
	unclean int
	wire    map[string]int64 // the transports' optional counters, summed; see sumCounters
	transit *transitTable
	peak    midRunPeak
	mem0    runtime.MemStats
	mem1    runtime.MemStats
}

func (c liveCfg) rep(r *run, idx int, traced bool, rec *recorder) error {
	repSpan := r.tracer.begin("rep", idx, -1)
	cpu0 := cpuSeconds()

	sp := r.tracer.begin("graph.RingChords", idx, repSpan)
	g := gossip.RingChords(c.n, ringChords, ringLatMax, r.seeds.Graph)
	genS := r.tracer.end(sp)

	opts := gossip.LiveOptions{Seed: r.seeds.Proto + uint64(idx), Tick: c.tick, Linger: c.linger}
	if c.lossy {
		opts.Faults = &gossip.LiveFaultConfig{Seed: r.seeds.Faults, Drop: lossDrop, Duplicate: lossDup, JitterTicks: lossJitter}
	}
	var out liveOutcome
	var err error
	if c.daemons == 1 {
		out, err = c.runInproc(r, g, opts, idx, repSpan, traced)
	} else {
		out, err = c.runTCP(r, g, opts, idx, repSpan, traced)
	}
	if err != nil {
		return err
	}
	repS := r.tracer.end(repSpan)
	cpuS := cpuSeconds() - cpu0

	// Outcome of the broadcast. A repetition that errored (tick budget
	// spent, transport failure) counts every node as not informed.
	var informS float64
	var msgs, requests, responses, ticks, uninformed int
	var faults gossip.LiveFaultCounts
	var shedAll int64
	failedRun := false
	for i, res := range out.results {
		if out.errs[i] != nil {
			failedRun = true
			if !errors.Is(out.errs[i], gossip.ErrLiveMaxTicks) {
				fmt.Printf("note: %s rep %d daemon %d: %v\n", c.name, idx, i, out.errs[i])
			}
		}
		informS = math.Max(informS, res.Metrics.Wall.Seconds())
		requests += res.Metrics.Requests
		responses += res.Metrics.Responses
		if res.Metrics.Ticks > ticks {
			ticks = res.Metrics.Ticks
		}
		for _, u := range out.hosted[i] {
			if int(u) >= len(res.Done) || !res.Done[u] {
				uninformed++
			}
		}
		f := res.Faults
		faults.InjectedDrops += f.InjectedDrops
		faults.InjectedDups += f.InjectedDups
		faults.Jittered += f.Jittered
		faults.PartitionDrops += f.PartitionDrops
		faults.TransportDrops += f.TransportDrops
		faults.Retransmits += f.Retransmits
		faults.DupsSuppressed += f.DupsSuppressed
		shedAll += f.Overload.ShedQueue
	}
	msgs = requests + responses
	if failedRun {
		uninformed = c.n
	}
	r.attempted += c.n
	r.failed += uninformed
	if failedRun || msgs == 0 || informS <= 0 {
		return nil // nothing of this repetition is a valid sample
	}
	if informS > out.runS {
		r.fail("%s rep %d: Metrics.Wall %.3fs exceeds the harness span %.3fs around the run", c.name, idx, informS, out.runS)
	}

	// End to end.
	rec.add("setup_s", genS+out.listenS+math.Max(0, out.runS-informS-c.linger.Seconds()))
	rec.add("inform_wall_s", informS)
	rec.add("msgs_per_s", float64(msgs)/informS)
	rec.add("cpu_us_per_msg", cpuS*1e6/float64(msgs))
	rec.add("fleet_wall_s", repS)

	// Per layer: what the run and its ledgers say without any tracing.
	rec.add("graph.gen_s", genS)
	rec.add("graph.edges", float64(g.M()))
	rec.add("live.run.ticks", float64(ticks))
	rec.add("live.run.node_ticks_per_s", float64(c.n)*float64(ticks)/informS)
	rec.add("live.run.requests", float64(requests))
	rec.add("live.run.responses", float64(responses))
	mailboxShed := shedAll - out.wire["Overload.ShedQueue"]
	rec.add("live.run.mailbox_shed", float64(mailboxShed))
	lost := faults.Dropped() + mailboxShed
	rec.add("live.stream.loss_share", float64(lost)/float64(msgs))
	rec.add("live.faults.injected_drops", float64(faults.InjectedDrops))
	rec.add("live.faults.injected_dups", float64(faults.InjectedDups))
	rec.add("live.faults.jittered", float64(faults.Jittered))
	if c.daemons > 1 {
		c.recordStream(r, rec, out, faults)
	}
	if traced {
		c.recordTraced(rec, out, msgs)
	}

	if c.lossy {
		// The live runtime is paced by the wall clock, so which messages
		// exist differs from run to run and the injected counts cannot
		// repeat exactly; what must hold is that the plan was applied at
		// its configured rates.
		if got := float64(faults.InjectedDrops) / float64(msgs); math.Abs(got-lossDrop) > 0.2*lossDrop {
			r.fail("%s rep %d: injected drop rate %.4f, plan says %.2f", c.name, idx, got, lossDrop)
		}
		if got := float64(faults.InjectedDups) / float64(msgs); math.Abs(got-lossDup) > 0.2*lossDup {
			r.fail("%s rep %d: injected duplicate rate %.4f, plan says %.2f", c.name, idx, got, lossDup)
		}
	}
	if c.paced {
		c.recordPaced(r, rec, g, opts, out, idx, repSpan, lost, faults.Retransmits)
	}
	return nil
}

func (c liveCfg) runInproc(r *run, g *gossip.Graph, opts gossip.LiveOptions, idx, parent int, traced bool) (liveOutcome, error) {
	out := liveOutcome{hosted: [][]gossip.NodeID{allNodes(0, c.n)}}
	stop, err := out.startTrace(r, idx, traced)
	if err != nil {
		return out, err
	}
	sp := r.tracer.begin("gossip.RunLive", idx, parent)
	res, rerr := gossip.RunLive(g, gossip.LivePushPull(0), opts)
	out.runS = r.tracer.end(sp)
	if err := stop(); err != nil {
		return out, err
	}
	out.results, out.errs = []gossip.LiveResult{res}, []error{rerr}
	return out, nil
}

func (c liveCfg) runTCP(r *run, g *gossip.Graph, opts gossip.LiveOptions, idx, parent int, traced bool) (liveOutcome, error) {
	var out liveOutcome
	sp := r.tracer.begin("listen+SetPeers", idx, parent)
	tcps := make([]*gossip.LiveTCPTransport, c.daemons)
	trs := make([]gossip.LiveTransport, c.daemons)
	closeAll := func() {
		for _, t := range tcps {
			if t != nil {
				t.Close()
			}
		}
	}
	addrs := make(map[gossip.NodeID]string, c.n)
	if traced {
		out.transit = newTransitTable()
	}
	for i := range tcps {
		nodes := allNodes(i*c.n/c.daemons, (i+1)*c.n/c.daemons)
		out.hosted = append(out.hosted, nodes)
		t, err := gossip.NewLiveTCPTransport("127.0.0.1:0", nodes)
		if err != nil {
			closeAll()
			return out, fmt.Errorf("listen: %w", err)
		}
		tcps[i], trs[i] = t, t
		if traced {
			trs[i] = newDecorator(t, i, out.transit)
		}
		for _, u := range nodes {
			addrs[u] = t.Addr().String()
		}
	}
	for _, t := range tcps {
		t.SetPeers(addrs)
	}
	if traced {
		out.transit.peersSet = time.Now()
	}
	out.listenS = r.tracer.end(sp)

	stop, err := out.startTrace(r, idx, traced)
	if err != nil {
		closeAll()
		return out, err
	}
	out.results, out.errs = make([]gossip.LiveResult, c.daemons), make([]error, c.daemons)
	sp = r.tracer.begin("gossip.RunLiveTransport x2", idx, parent)
	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := opts
			o.Nodes = out.hosted[i]
			out.results[i], out.errs[i] = gossip.RunLiveTransport(g, gossip.LivePushPull(0), trs[i], o)
		}(i)
	}
	wg.Wait()
	out.runS = r.tracer.end(sp)
	if err := stop(); err != nil {
		closeAll()
		return out, err
	}

	// Drain all daemons at once, as exiting daemons would: each waits for
	// the other's acks.
	sp = r.tracer.begin("Drain x2", idx, parent)
	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	reports := make([]gossip.LiveDrainReport, c.daemons)
	for i := range tcps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var d gossip.LiveDrainer = tcps[i]
			reports[i], _ = d.Drain(ctx)
		}(i)
	}
	wg.Wait()
	cancel()
	out.drainS = r.tracer.end(sp)
	for _, rep := range reports {
		if !rep.Clean {
			out.unclean++
		}
	}
	ledgers := make([]map[string]int64, len(tcps))
	for i, t := range tcps {
		ledgers[i] = readCounters(t)
	}
	out.wire = sumCounters(ledgers)
	sp = r.tracer.begin("Close x2", idx, parent)
	closeAll()
	out.closeS = r.tracer.end(sp)
	return out, nil
}

// recordStream records the stream layer's ledgers, read after the drain so
// the tail of the ack traffic is in them.
func (c liveCfg) recordStream(r *run, rec *recorder, out liveOutcome, faults gossip.LiveFaultCounts) {
	w := out.wire
	for _, name := range counterNames {
		if _, ok := w[name]; !ok {
			r.missing[name] = true
		}
	}
	have := func(names ...string) bool {
		for _, name := range names {
			if _, ok := w[name]; !ok {
				return false
			}
		}
		return true
	}
	if have("WireBytesOut") {
		rec.add("live.stream.wire_bytes_out", float64(w["WireBytesOut"]))
		rec.add("wire_bytes_per_node", float64(w["WireBytesOut"])/float64(c.n))
	}
	if have("WireMsgsOut") {
		rec.add("live.stream.msgs_out", float64(w["WireMsgsOut"]))
	}
	if have("WireBytesOut", "WireMsgsOut") && w["WireMsgsOut"] > 0 {
		rec.add("live.stream.wire_bytes_per_wire_msg", float64(w["WireBytesOut"])/float64(w["WireMsgsOut"]))
	}
	if have("WireFramesOut") {
		rec.add("live.stream.frames_out", float64(w["WireFramesOut"]))
	}
	if have("WireMsgsOut", "WireFramesOut") && w["WireFramesOut"] > 0 {
		rec.add("live.stream.msgs_per_frame", float64(w["WireMsgsOut"])/float64(w["WireFramesOut"]))
	}
	if have("WireFlushes") {
		rec.add("live.stream.flushes", float64(w["WireFlushes"]))
	}
	if have("Overload") {
		rec.add("live.stream.shed_queue", float64(w["Overload.ShedQueue"]))
		rec.add("live.stream.shed_pend", float64(w["Overload.ShedPend"]))
		rec.add("live.stream.breaker_opens", float64(w["Overload.BreakerOpens"]))
	}
	// The run's own fault ledger carries these three whatever accessors the
	// transport keeps.
	rec.add("live.stream.retransmits", float64(faults.Retransmits))
	rec.add("live.stream.dups_suppressed", float64(faults.DupsSuppressed))
	rec.add("live.stream.dropped", float64(faults.TransportDrops))
	rec.add("live.stream.drain_s", out.drainS)
	rec.add("live.stream.drain_unclean", float64(out.unclean))
	rec.add("live.stream.close_s", out.closeS)
}

// recordTraced records what only a traced repetition measures.
func (c liveCfg) recordTraced(rec *recorder, out liveOutcome, msgs int) {
	rec.add("live.run.goroutines", float64(out.peak.goroutines))
	rec.add("live.run.heap_bytes_per_node", float64(out.peak.heapInuse)/float64(c.n))
	rec.add("live.run.gc_cycles", float64(out.mem1.NumGC-out.mem0.NumGC))
	rec.add("live.run.gc_pause_ms", float64(out.mem1.PauseTotalNs-out.mem0.PauseTotalNs)/1e6)
	rec.add("live.run.allocs_per_msg", float64(out.mem1.Mallocs-out.mem0.Mallocs)/float64(msgs))
	t := out.transit
	if t == nil {
		return
	}
	rec.add("live.stream.send_ns_p50", percentile(t.sendNs, 50))
	rec.add("live.stream.send_ns_p99", percentile(t.sendNs, 99))
	rec.add("live.stream.transit_us_p50", percentile(t.crossUs, 50))
	rec.add("live.stream.transit_us_p99", percentile(t.crossUs, 99))
	rec.add("live.stream.local_transit_us_p50", percentile(t.localUs, 50))
	rec.add("live.stream.local_transit_us_p99", percentile(t.localUs, 99))
	if !t.firstCross.IsZero() {
		rec.add("live.stream.dial_ms", float64(t.firstCross.Sub(t.peersSet))/1e6)
	}
}

// recordPaced holds the paced workload to what makes it a low-load regime —
// nothing shed or dropped — and measures its fidelity: the simulator runs the
// same protocol on the same graph and seed. Retransmissions without loss are
// not held against it: the RTO floor is 50 ms, and on a shared host a stall
// that long fires the timers of a whole tick's messages in up to a few
// repetitions per run. They are noted and show in live.stream.retransmits'
// upper quartile, not failed on.
func (c liveCfg) recordPaced(r *run, rec *recorder, g *gossip.Graph, opts gossip.LiveOptions, out liveOutcome, idx, parent int, lost, retransmits int64) {
	if lost > 0 {
		r.fail("%s rep %d is not paced: %d messages lost", c.name, idx, lost)
	}
	if retransmits > 0 {
		fmt.Printf("note: %s rep %d: %d retransmissions without loss (a stall beyond the RTO floor)\n", c.name, idx, retransmits)
	}
	sp := r.tracer.begin("gossip.RunPushPull (yardstick)", idx, parent)
	sim, err := gossip.RunPushPull(g, 0, gossip.Options{Seed: opts.Seed})
	r.tracer.end(sp)
	if err != nil || !sim.Completed {
		r.fail("%s rep %d: simulator yardstick did not complete: %v", c.name, idx, err)
		return
	}
	rec.add("sim.rounds", float64(sim.Metrics.Rounds))
	curves := make([][]float64, len(out.results))
	hosted := make([]int, len(out.results))
	for i, res := range out.results {
		curves[i], hosted[i] = res.Faults.InformedOverTime, len(out.hosted[i])
	}
	tickMs := float64(c.tick) / 1e6
	rec.add("inform_p50_ms", informedAt(curves, hosted, tickMs, 0.50))
	rec.add("inform_p99_ms", informedAt(curves, hosted, tickMs, 0.99))
}

// finish derives the metrics that are ratios of sums over the repetitions.
func (c liveCfg) finish(r *run, rec *recorder) {
	if c.paced {
		if rounds := rec.sum("sim.rounds"); rounds > 0 {
			ratio := rec.sum("live.run.ticks") / rounds
			rec.set("ticks_over_sim", ratio)
			if ratio < 0.9 {
				r.fail("%s: live ticks are %.2f of simulator rounds; the run was not paced and the set is invalid", c.name, ratio)
			}
		}
	}
}

// midRunPeak is the most goroutines and heap in use seen while the runtimes
// ran.
type midRunPeak struct {
	goroutines int
	heapInuse  uint64
}

// startTrace begins the traced part of a repetition — CPU profile, memory
// statistics before and after, a sampler of goroutines and heap — and returns
// the function that ends it. Untraced it does nothing.
func (o *liveOutcome) startTrace(r *run, idx int, traced bool) (func() error, error) {
	if !traced {
		return func() error { return nil }, nil
	}
	runtime.ReadMemStats(&o.mem0)
	if err := r.prof.start(idx); err != nil {
		return nil, err
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if g := runtime.NumGoroutine(); g > o.peak.goroutines {
					o.peak.goroutines = g
				}
				if ms.HeapInuse > o.peak.heapInuse {
					o.peak.heapInuse = ms.HeapInuse
				}
			}
		}
	}()
	return func() error {
		close(quit)
		<-done
		err := r.prof.stop()
		runtime.ReadMemStats(&o.mem1)
		return err
	}, nil
}

func allNodes(lo, hi int) []gossip.NodeID {
	nodes := make([]gossip.NodeID, 0, hi-lo)
	for u := lo; u < hi; u++ {
		nodes = append(nodes, gossip.NodeID(u))
	}
	return nodes
}
