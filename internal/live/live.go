// Package live is the wall-clock gossip runtime: it executes the very same
// sim.Handler protocol state machines as the lockstep round simulator, but
// against real time and a pluggable Transport. Hosted nodes are multiplexed
// onto a sharded event loop — N shards (default GOMAXPROCS), each owning a
// contiguous range of nodes as a dense slice, a flat calendar of delayed
// deliveries, per-destination outboxes and a mailbox for network arrivals —
// so a runtime costs O(shards) goroutines and zero per-node tickers
// regardless of how many nodes it hosts (see shard.go; 100k+ in-process
// nodes is the design point).
//
// The mapping from the paper's synchronous model to wall-clock time is:
//
//   - one simulator round = one tick of Options.Tick wall-clock duration;
//     each shard sweeps its nodes once per tick, so rounds are only
//     approximately aligned across nodes — exactly the slack a real
//     deployment has;
//   - an exchange over an edge of latency ℓ is a request delivered ⌈ℓ/2⌉
//     ticks after initiation and a response ⌊ℓ/2⌋ ticks after the answer,
//     armed on the receiving node's shard calendar (a remote message
//     carries its delay on the wire and is armed when it arrives);
//   - per-node randomness comes from the same seeded streams as the
//     simulator (rng.Stream(seed, node)), so a protocol makes identical
//     random choices in both runtimes, tick for tick.
//
// Two transports ship with the package, both delivering through the
// runtime's sink: ChanTransport (in-process, used by gossip.RunLive) and
// TCPTransport (binary frames over TCP, one process per node subset, used by
// cmd/gossipd). A Runtime may host any subset of the graph's nodes; a
// cluster is several runtimes — in one process or many — whose transports
// route to each other.
package live

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gossip/internal/graph"
	"gossip/internal/member"
	"gossip/internal/par"
	"gossip/internal/sim"
)

// DefaultTick is the wall-clock duration of one protocol round.
const DefaultTick = time.Millisecond

// DefaultMaxTicks bounds runs whose completion goal never fires.
const DefaultMaxTicks = 30_000

// ErrMaxTicks reports that every hosted node stopped — tick budget spent or
// fixed schedule finished — before the local completion goal fired.
var ErrMaxTicks = errors.New("live: all nodes stopped before completion")

// CrashPlan schedules a crash-recovery epoch for one node: fail-stop at
// sweep At of the node's shard; if RecoverAt > 0, rejoin at that sweep with
// cleared protocol state (as a process restarted from scratch would),
// keeping its seeded random stream. RecoverAt == 0 means the crash is
// permanent. Sweeps count as MaxTicks does: held ones included, about one
// per tick, later by the ticks a late timer or a slow sweep skipped.
type CrashPlan struct {
	At        int
	RecoverAt int
}

// Options configures a live run. The zero value hosts every node of the
// graph with default tick duration and budget.
type Options struct {
	// Seed makes per-node randomness reproducible; a live run and a
	// simulator run with equal seeds draw identical per-node streams.
	Seed uint64
	// Tick is the wall-clock duration of one protocol round (default
	// DefaultTick). Latency delays scale with it.
	Tick time.Duration
	// MaxTicks is the run's budget in sweeps (default DefaultMaxTicks):
	// every hosted node stops once its shard has swept MaxTicks times,
	// whether or not backpressure held it meanwhile. A shard sweeps once
	// per tick it keeps up with, so a run that never completes returns
	// ErrMaxTicks after about MaxTicks·Tick, later by the ticks a late
	// timer or a slow sweep skipped.
	MaxTicks int
	// NHint is the network-size upper bound known to nodes (0 = exact n).
	NHint int
	// Nodes lists the nodes hosted by this runtime (nil = all). A cluster
	// is several runtimes with disjoint node sets sharing a transport
	// topology.
	Nodes []graph.NodeID
	// Crashes schedules crash-recovery epochs: Crashes[v] halts node v at
	// its At sweep — it stops ticking and drops incoming messages
	// unanswered — and, when RecoverAt is set, rejoins it with cleared
	// state. A node scheduled to recover still counts toward completion; a
	// permanently crashed node does not (Completed is defined among
	// reachable survivors).
	Crashes map[graph.NodeID]CrashPlan
	// Linger keeps the runtime serving incoming requests for this long
	// after local completion, so slower peer runtimes can still pull from
	// us. Multi-runtime deployments should set it; single-runtime runs
	// don't need it (local completion is global completion).
	Linger time.Duration
	// Membership, when non-nil, runs a SWIM failure detector on every
	// hosted node: nodes bootstrap from the configured seed peer list,
	// probe each other over the run's transport, and the completion check
	// counts only members currently believed alive — a crashed node the
	// cluster has declared dead no longer gates completion, and a recovered
	// node gates it again once re-admitted.
	Membership *MembershipConfig
	// Interrupt, when non-nil, requests a graceful stop when it becomes
	// readable (closed or sent to): hosted nodes broadcast a membership
	// leave, stop initiating, keep answering for DrainTicks ticks so the
	// leave propagates, then the run returns with Result.Interrupted set and
	// a nil error. This is the runtime half of a graceful shutdown; the
	// owner then drains the transport (Drainer).
	Interrupt <-chan struct{}
	// DrainTicks is how many ticks an interrupted run keeps serving while
	// its leave broadcast propagates (default DefaultDrainTicks).
	DrainTicks int
	// Shards is the number of event-loop workers hosted nodes are
	// multiplexed onto (0 = par.MaxWorkers(), i.e. GOMAXPROCS; clamped to
	// the hosted node count). More shards buy parallelism, fewer buy cache
	// density; the default is right for almost everything.
	Shards int
}

// DefaultDrainTicks is the post-interrupt grace period, in ticks.
const DefaultDrainTicks = 8

// Metrics aggregates the cost of a live run across its hosted nodes. It is
// the wall-clock counterpart of sim.Metrics (see Sim).
type Metrics struct {
	// Ticks is the largest round counter any hosted node reached.
	Ticks int
	// Requests and Responses count messages sent by hosted nodes.
	Requests  int
	Responses int
	// Bytes is the accounted payload volume (sim.PayloadSize).
	Bytes int
	// EdgeActivations counts initiated exchanges.
	EdgeActivations int
	// MemberPackets and MemberBytes count membership traffic (probes, acks,
	// ping-reqs, syncs) sent by hosted nodes — kept apart from the protocol
	// counters so membership never skews a protocol's cost accounting.
	MemberPackets int
	MemberBytes   int
	// Wall is the run's wall-clock duration.
	Wall time.Duration
}

// Messages returns the total message count (requests + responses).
func (m Metrics) Messages() int { return m.Requests + m.Responses }

// Sim converts to the simulator's metrics shape, with ticks as rounds, for
// side-by-side comparison with round-engine runs.
func (m Metrics) Sim() sim.Metrics {
	return sim.Metrics{
		Rounds:          m.Ticks,
		Requests:        m.Requests,
		Responses:       m.Responses,
		Bytes:           m.Bytes,
		EdgeActivations: m.EdgeActivations,
	}
}

// Result reports a live run over this runtime's hosted nodes.
type Result struct {
	Metrics Metrics
	// Completed is true when every reachable survivor — every hosted node
	// not fail-stopped without a scheduled recovery — reached the
	// protocol's local goal.
	Completed bool
	// Interrupted is true when the run ended because Options.Interrupt
	// fired: the nodes broadcast a membership leave and stopped early.
	// Completed then reports the goal's state at the interrupt.
	Interrupted bool
	// Done[v] reports node v's local goal at shutdown (hosted nodes only).
	Done []bool
	// Crashed[v] reports whether node v is down at shutdown (hosted nodes
	// only); a node that crashed and recovered reports false here and true
	// in Recovered.
	Crashed []bool
	// Recovered[v] reports whether node v crashed and rejoined with
	// cleared state (hosted nodes only).
	Recovered []bool
	// Faults is the run's fault ledger: injected and real message losses,
	// injected duplicates (all delivered; the handlers absorb them),
	// per-phase fault rows, and the informed-fraction trajectory. Zero-valued when the transport stack
	// keeps no fault accounting.
	Faults FaultReport
	// Handlers exposes the final protocol state machines of hosted nodes
	// for inspection; they must not be used concurrently with another run.
	Handlers map[graph.NodeID]sim.Handler
	// Members maps each hosted node to its final membership table, sorted
	// by node ID (nil without Options.Membership).
	Members map[graph.NodeID][]member.Update
	// MemberEvents maps each hosted node to its membership event log
	// (populated only under Options.Membership.Record).
	MemberEvents map[graph.NodeID][]member.Event
}

// Runtime drives the hosted nodes of one live run.
type Runtime struct {
	g         *graph.Graph
	proto     Protocol
	tr        Transport
	opts      Options
	nhint     int
	csr       *graph.AdjCSR // dense adjacency-order topology view
	local     []*node       // pointers into the shards' dense node slices
	shards    []*shard
	loc       []nodeLoc     // node ID -> owning shard and slot ({-1,-1} = hosted elsewhere)
	epoch     time.Time     // shard tick zero
	memberCfg member.Config // defaulted, valid only when opts.Membership != nil
	stopCh    chan struct{}
	quiesced  atomic.Bool  // completed and lingering: answer peers, don't initiate
	leaving   atomic.Bool  // interrupted: broadcast leave, answer, don't initiate
	doneN     atomic.Int64 // hosted nodes whose done flag is set (watch fast path)
	stopN     atomic.Int64 // hosted nodes whose exhausted flag is set
	abandoned atomic.Int64 // posts a stopped shard never delivered, delays past maxDelayTicks
	peerSink  PeerStatusSink
	cong      congestion // the transport's congestion, nil when it reports none
	wg        sync.WaitGroup
}

// Run executes proto over the transport until every hosted node reaches the
// protocol's local goal (Completed), every hosted node exhausts its tick
// budget (ErrMaxTicks), or every hosted node has crashed (completed
// vacuously, as in the simulator). The caller keeps ownership of the
// transport and must Close it after Run returns.
func Run(g *graph.Graph, proto Protocol, tr Transport, opts Options) (Result, error) {
	rt, st, err := newRuntime(g, proto, tr, opts)
	if err != nil {
		return Result{}, err
	}
	opts = rt.opts

	// The transport hands every message for a hosted node to the runtime's
	// sink (see shard.go). Installed only now, once the shards it routes to
	// exist, and checked before any of them starts.
	if !st.SetSink(rt.sink) {
		return Result{}, errors.New("live: transport refused the runtime's delivery sink")
	}

	start := time.Now()
	rt.epoch = start
	for _, sh := range rt.shards {
		rt.wg.Add(1)
		go sh.run()
	}

	completed, interrupted, informedOverTime := rt.watch()
	wall := time.Since(start)
	if interrupted {
		// Graceful stop: the nodes have been told to broadcast their leave
		// (see shard.sweep); keep serving for the grace window so it
		// propagates.
		time.Sleep(time.Duration(opts.DrainTicks) * opts.Tick)
	} else if completed && opts.Linger > 0 {
		// Keep answering peers' pulls; our own nodes are done but a slower
		// runtime may still need the rumor from us. Quiescing stops the
		// nodes from initiating (and inflating metrics) while they linger.
		rt.quiesced.Store(true)
		time.Sleep(opts.Linger)
	}
	close(rt.stopCh)
	rt.wg.Wait()
	st.SetSink(nil)

	res := rt.collect(wall)
	res.Completed = completed
	res.Interrupted = interrupted
	if fr, ok := tr.(FaultReporter); ok {
		res.Faults = fr.Faults()
	}
	res.Faults.TransportDrops += rt.abandoned.Load()
	res.Faults.InformedOverTime = informedOverTime
	if !completed && !interrupted {
		return res, fmt.Errorf("%w (%d ticks, %d nodes done)", ErrMaxTicks, res.Metrics.Ticks, countTrue(res.Done))
	}
	return res, nil
}

// newRuntime validates a run's options and lays its hosted nodes out on
// shards, each with its crash and recovery schedule. Nothing runs yet and no
// sink is installed.
func newRuntime(g *graph.Graph, proto Protocol, tr Transport, opts Options) (*Runtime, SinkTransport, error) {
	if opts.Tick <= 0 {
		opts.Tick = DefaultTick
	}
	if opts.MaxTicks <= 0 {
		opts.MaxTicks = DefaultMaxTicks
	}
	rt := &Runtime{
		g:      g,
		proto:  proto,
		tr:     tr,
		opts:   opts,
		nhint:  opts.NHint,
		csr:    graph.BuildAdjCSR(g),
		stopCh: make(chan struct{}),
	}
	// A congested transport holds the shards' initiation (see shard.tick).
	rt.cong, _ = tr.(congestion)
	if rt.nhint <= 0 {
		rt.nhint = g.N()
	}
	// Validate the full crash schedule up front — including entries for
	// nodes hosted by other runtimes — so a bad plan fails loudly instead of
	// silently never firing (satellite of the membership PR).
	for v, plan := range opts.Crashes {
		if v < 0 || v >= g.N() {
			return nil, nil, fmt.Errorf("live: crash plan for node %d out of range [0,%d)", v, g.N())
		}
		if plan.At < 0 || plan.RecoverAt < 0 {
			return nil, nil, fmt.Errorf("live: node %d crash plan has negative tick (at=%d recover=%d)", v, plan.At, plan.RecoverAt)
		}
		if plan.RecoverAt > 0 && plan.RecoverAt <= plan.At {
			return nil, nil, fmt.Errorf("live: node %d recovery tick %d not after crash tick %d", v, plan.RecoverAt, plan.At)
		}
	}
	if opts.Membership != nil {
		if err := opts.Membership.validate(g.N()); err != nil {
			return nil, nil, err
		}
		rt.memberCfg = opts.Membership.memberConfig(opts.Seed, g.N(), false)
		// Feed membership verdicts to the transport: sends toward an
		// address whose every node the detectors declare dead are refused
		// (membership packets excepted), and a refuted or recovered node
		// re-admits its address.
		rt.peerSink, _ = tr.(PeerStatusSink)
	}
	if opts.DrainTicks <= 0 {
		opts.DrainTicks = DefaultDrainTicks
		rt.opts.DrainTicks = DefaultDrainTicks
	}

	hosted := opts.Nodes
	if hosted == nil {
		hosted = make([]graph.NodeID, g.N())
		for u := range hosted {
			hosted[u] = graph.NodeID(u)
		}
	}
	// Delivery goes through the runtime's sink alone, so a transport that
	// cannot take one cannot run.
	st, ok := tr.(SinkTransport)
	if !ok {
		return nil, nil, errors.New("live: transport cannot deliver to a runtime (not a SinkTransport)")
	}
	seen := make(map[graph.NodeID]bool, len(hosted))
	for _, u := range hosted {
		if u < 0 || u >= g.N() {
			return nil, nil, fmt.Errorf("live: hosted node %d out of range [0,%d)", u, g.N())
		}
		if seen[u] {
			return nil, nil, fmt.Errorf("live: node %d hosted twice", u)
		}
		seen[u] = true
		if !st.Hosts(u) {
			return nil, nil, fmt.Errorf("live: transport does not host node %d", u)
		}
	}
	if len(hosted) == 0 {
		return nil, nil, errors.New("live: no nodes to host")
	}

	// Partition the hosted nodes into contiguous dense shard slices. The
	// slices are sized exactly and never grow, so the *node pointers in
	// rt.local (used by the watcher and membership layer) stay stable.
	nShards := opts.Shards
	if nShards <= 0 {
		nShards = par.MaxWorkers()
	}
	if nShards > len(hosted) {
		nShards = len(hosted)
	}
	rt.loc = make([]nodeLoc, g.N())
	for i := range rt.loc {
		rt.loc[i] = nodeLoc{shard: -1, idx: -1}
	}
	per := (len(hosted) + nShards - 1) / nShards
	for lo := 0; lo < len(hosted); lo += per {
		hi := lo + per
		if hi > len(hosted) {
			hi = len(hosted)
		}
		sh := newShard(rt, len(rt.shards), nShards, hi-lo)
		for j, u := range hosted[lo:hi] {
			plan := opts.Crashes[u]
			n := &sh.nodes[j]
			n.rt = rt
			n.sh = sh
			n.id = u
			n.h = proto.NewHandler(u)
			n.recoverAt = plan.RecoverAt
			n.ctx = sim.NewContext(n)
			if opts.Membership != nil {
				n.mem.Store(rt.newMember(u))
			}
			if plan.At > 0 {
				sh.crashes = append(sh.crashes, planned{at: plan.At, idx: int32(j)})
				if plan.RecoverAt > 0 {
					sh.recoveries = append(sh.recoveries, planned{at: plan.RecoverAt, idx: int32(j)})
				}
			}
			rt.loc[u] = nodeLoc{shard: int32(sh.id), idx: int32(j)}
			rt.local = append(rt.local, n)
		}
		bySweep := func(a, b planned) int { return cmp.Compare(a.at, b.at) }
		slices.SortStableFunc(sh.crashes, bySweep)
		slices.SortStableFunc(sh.recoveries, bySweep)
		rt.shards = append(rt.shards, sh)
	}

	return rt, st, nil
}

// watch polls the nodes' outward flags once per tick until every reachable
// survivor is done (completed), every one of them has stopped — tick budget
// spent or schedule finished — or Options.Interrupt fires (interrupted; the
// leaving flag is set so nodes broadcast their leave on the next tick).
// Permanently crashed nodes are excluded; a node with a scheduled recovery
// still counts, so completion waits for it to rejoin and catch up. The
// per-tick informed fraction among the counted nodes is returned alongside.
func (rt *Runtime) watch() (completed, interrupted bool, series []float64) {
	// With no crash schedule and no membership, every hosted node counts
	// toward completion forever, so the per-tick O(hosted) flag scan reduces
	// to two counter reads — the difference between a watcher that idles and
	// one that burns a core at 100k nodes.
	fast := rt.opts.Membership == nil && len(rt.opts.Crashes) == 0
	ticker := time.NewTicker(rt.opts.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-rt.opts.Interrupt:
			rt.leaving.Store(true)
			return false, true, series
		case <-ticker.C:
		}
		doneCount, total := 0, 0
		allDone, allStopped := true, true
		if fast {
			total = len(rt.local)
			doneCount = int(rt.doneN.Load())
			allDone = doneCount >= total
			allStopped = int(rt.stopN.Load()) >= total
		} else {
			for _, n := range rt.local {
				if n.crashed.Load() && n.recoverAt == 0 {
					continue // permanently crashed: not a reachable survivor
				}
				if rt.opts.Membership != nil && n.crashed.Load() && rt.believedDead(n.id) {
					// The membership layer has declared this node dead: it is
					// no longer a member, so it no longer gates completion.
					// Once it rejoins and refutes, it counts again.
					continue
				}
				total++
				if n.done.Load() {
					doneCount++
				} else {
					allDone = false
				}
				if !n.exhausted.Load() {
					allStopped = false
				}
			}
		}
		if total == 0 {
			series = append(series, 1)
		} else {
			series = append(series, float64(doneCount)/float64(total))
		}
		if allDone {
			return true, false, series
		}
		if allStopped {
			return false, false, series
		}
	}
}

// collect aggregates per-node state after every node goroutine has joined.
func (rt *Runtime) collect(wall time.Duration) Result {
	res := Result{
		Done:      make([]bool, rt.g.N()),
		Crashed:   make([]bool, rt.g.N()),
		Recovered: make([]bool, rt.g.N()),
		Handlers:  make(map[graph.NodeID]sim.Handler, len(rt.local)),
	}
	if rt.opts.Membership != nil {
		res.Members = make(map[graph.NodeID][]member.Update, len(rt.local))
		if rt.memberCfg.Record {
			res.MemberEvents = make(map[graph.NodeID][]member.Event, len(rt.local))
		}
	}
	for _, n := range rt.local {
		res.Metrics.Requests += n.m.Requests
		res.Metrics.Responses += n.m.Responses
		res.Metrics.Bytes += n.m.Bytes
		res.Metrics.EdgeActivations += n.m.EdgeActivations
		res.Metrics.MemberPackets += n.m.MemberPackets
		res.Metrics.MemberBytes += n.m.MemberBytes
		if m := n.mem.Load(); m != nil && res.Members != nil {
			res.Members[n.id] = m.Snapshot()
			if res.MemberEvents != nil {
				res.MemberEvents[n.id] = m.Events()
			}
		}
		if n.tick > res.Metrics.Ticks {
			res.Metrics.Ticks = n.tick
		}
		res.Done[n.id] = n.done.Load()
		res.Crashed[n.id] = n.crashed.Load()
		res.Recovered[n.id] = n.recovered.Load()
		res.Handlers[n.id] = n.h
	}
	res.Metrics.Wall = wall
	return res
}

func countTrue(bs []bool) int {
	c := 0
	for _, b := range bs {
		if b {
			c++
		}
	}
	return c
}
