// Package gossip is a library for information dissemination in networks
// whose edges have latencies, reproducing "Gossiping with Latencies"
// (Gilbert, Robinson, Sourav; PODC 2017 / arXiv:1611.06343).
//
// The package exposes three layers:
//
//   - Graphs: latency-weighted graphs, the generators the examples and the
//     benchmark use, and the Theorem 6 lower-bound network. Every family
//     the commands build, the Theorem 7 and 8 constructions among them, is
//     in internal/graph.
//   - Analysis: weighted conductance φ*, critical latency ℓ* (Definition 2),
//     and the φ_ℓ ladder.
//   - Protocols: one-call runners for every algorithm in the paper —
//     push-pull (Theorem 12), flooding, ℓ-DTG local broadcast (Appendix C),
//     RR Broadcast over an oriented Baswana–Sen spanner (Lemmas 13–16), EID
//     and General EID (Section 5), the T(k) schedule and Path Discovery
//     (Appendix E), latency discovery (Section 4.2), and the unified
//     algorithm (Theorem 20).
//
// Quick start:
//
//	g := gossip.RingOfCliques(8, 8, 4) // 8 cliques of 8, bridges of latency 4
//	res, err := gossip.RunPushPull(g, 0, gossip.Options{Seed: 1})
//	if err != nil { ... }
//	fmt.Println("broadcast completed in", res.Metrics.Rounds, "rounds")
//
// All runs are deterministic for a fixed Options.Seed.
package gossip

import (
	"net"
	"time"

	"gossip/internal/core"
	"gossip/internal/cut"
	"gossip/internal/graph"
	"gossip/internal/live"
	"gossip/internal/member"
	"gossip/internal/par"
	"gossip/internal/sim"
)

// Graph is a connected, undirected graph with integer edge latencies — the
// network model of the paper (Section 1).
type Graph = graph.Graph

// NodeID identifies a node (0..N-1).
type NodeID = graph.NodeID

// NewGraph returns an empty graph on n nodes; add edges with AddEdge.
func NewGraph(n int) *Graph { return graph.New(n) }

// Generators for standard topologies (uniform latency unless noted).
var (
	// Clique returns the complete graph K_n.
	Clique = graph.Clique
	// RingOfCliques returns k cliques of size s joined in a ring by bridges
	// of the given latency — a family with conductance known by design.
	RingOfCliques = graph.RingOfCliques
	// Dumbbell returns two cliques joined by one bridge edge.
	Dumbbell = graph.Dumbbell
	// ChungLu returns a power-law random graph with degree exponent beta and
	// the given expected average degree — the heavy-tailed family the
	// conductance-engine benchmarks run on.
	ChungLu = graph.ChungLu
	// RingChords returns a latency-1 ring overlaid with random chords of
	// heterogeneous latency — O(n·chords) construction, the family the
	// million-node cluster harness generates.
	RingChords = graph.RingChords
)

// NewTheoremSixNetwork builds the Ω(Δ) lower-bound network H of Theorem 6
// (Section 3; see internal/graph for the construction).
var NewTheoremSixNetwork = graph.NewTheoremSixNetwork

// Options configures a protocol run. The zero value is usable.
type Options struct {
	// Seed makes the run reproducible; runs with equal seeds are identical.
	Seed uint64
	// MaxRounds bounds the simulation (0 = a generous default).
	MaxRounds int
	// NHint is the polynomial upper bound on the network size known to the
	// nodes (Section 5.1); 0 means the exact size.
	NHint int
	// FullRTTDelivery switches the engine to the no-pipelining delivery
	// ablation (request and response both arrive ℓ rounds after initiation).
	FullRTTDelivery bool
	// Crashes schedules fail-stop node failures: Crashes[v] = r crashes
	// node v at round r. Broadcast runners complete when all *surviving*
	// nodes are informed.
	Crashes map[NodeID]int
	// MaxResponsesPerRound bounds how many requests a node answers per round
	// (0 = unlimited) — the bounded in-degree model the paper's conclusion
	// raises. Excess requests queue FIFO.
	MaxResponsesPerRound int
	// Trace, when non-nil, receives every engine event (initiations,
	// deliveries, crashes). See Recorder for a collecting implementation.
	Trace Tracer
}

// Tracer receives engine events during a run.
type Tracer = sim.Tracer

// TraceEvent is one observable engine event.
type TraceEvent = sim.TraceEvent

// Recorder collects trace events for inspection.
type Recorder = sim.Recorder

func (o Options) simConfig() sim.Config {
	return sim.Config{
		Seed:                 o.Seed,
		MaxRounds:            o.MaxRounds,
		NHint:                o.NHint,
		FullRTTDelivery:      o.FullRTTDelivery,
		Crashes:              o.Crashes,
		MaxResponsesPerRound: o.MaxResponsesPerRound,
		Trace:                o.Trace,
	}
}

// Metrics aggregates the cost of a run: rounds, messages, bytes, edge
// activations.
type Metrics = sim.Metrics

// BroadcastResult reports a single-source broadcast.
type BroadcastResult = core.BroadcastResult

// AllToAllResult reports an all-to-all dissemination run.
type AllToAllResult = core.AllToAllResult

// LocalBroadcastResult reports an ℓ-DTG local broadcast run.
type LocalBroadcastResult = core.LocalBroadcastResult

// RRBroadcastResult reports a standalone RR Broadcast run.
type RRBroadcastResult = core.RRBroadcastResult

// UnifiedResult reports the unified algorithm of Theorem 20.
type UnifiedResult = core.UnifiedResult

// RunPushPull broadcasts from source with the classical push-pull random
// phone call protocol. Latencies need not be known; completion takes
// O((ℓ*/φ*)·log n) rounds whp (Theorem 12).
func RunPushPull(g *Graph, source NodeID, opts Options) (BroadcastResult, error) {
	return core.PushPull(g, source, core.ModePushPull, opts.simConfig())
}

// RunPushOnly broadcasts with the pull direction disabled (the footnote-2
// baseline that needs Ω(nD) on a star).
func RunPushOnly(g *Graph, source NodeID, opts Options) (BroadcastResult, error) {
	return core.PushPull(g, source, core.ModePushOnly, opts.simConfig())
}

// RunFlood broadcasts from source by deterministic flooding: each informed
// node contacts each neighbor once.
func RunFlood(g *Graph, source NodeID, opts Options) (BroadcastResult, error) {
	return core.Flood(g, source, opts.simConfig())
}

// RunLocalBroadcast solves ℓ-local broadcast with the deterministic ℓ-DTG
// protocol of Appendix C in O(ℓ·log² n) rounds: every node learns the
// rumors of all neighbors connected by edges of latency <= ell.
func RunLocalBroadcast(g *Graph, ell int, opts Options) (LocalBroadcastResult, error) {
	return core.LocalBroadcastDTG(g, ell, opts.simConfig())
}

// RunRRBroadcast builds an oriented spanner of the latency-<=k subgraph and
// runs RR Broadcast (Algorithm 2) for the Lemma 15 schedule. With k >= D it
// solves all-to-all dissemination in O(D·log² n) rounds (Corollary 16).
// spannerK overrides the Baswana–Sen parameter (0 = ⌈log₂ n⌉).
func RunRRBroadcast(g *Graph, k, spannerK int, opts Options) (RRBroadcastResult, error) {
	return core.RRBroadcast(g, k, spannerK, opts.simConfig())
}

// RunEID solves all-to-all dissemination with known latencies and known
// weighted diameter D in O(D·log³ n) rounds (Lemma 17).
func RunEID(g *Graph, d int, opts Options) (AllToAllResult, error) {
	return core.EID(g, d, opts.simConfig())
}

// RunGeneralEID solves all-to-all dissemination with known latencies and
// unknown diameter via guess-and-double with termination detection
// (Algorithm 4, Theorem 19); all nodes terminate in the same round
// (Lemma 18).
func RunGeneralEID(g *Graph, opts Options) (AllToAllResult, error) {
	return core.GeneralEID(g, opts.simConfig())
}

// RunTSequence solves all-to-all dissemination by executing the recursive
// T(k) schedule of Appendix E for the smallest power of two k >= d.
func RunTSequence(g *Graph, d int, opts Options) (AllToAllResult, error) {
	return core.TSequence(g, d, opts.simConfig())
}

// RunPathDiscovery solves all-to-all dissemination with unknown diameter
// using the Path Discovery algorithm (Appendix E, Algorithm 6) in
// O(D·log² n·log D) rounds.
func RunPathDiscovery(g *Graph, opts Options) (AllToAllResult, error) {
	return core.PathDiscovery(g, opts.simConfig())
}

// RunDiscoverEID solves all-to-all dissemination when latencies are NOT
// known: nodes probe to discover adjacent latencies (Section 4.2) and run
// EID over the discovered subgraph, doubling the budget until the
// termination check passes. O((D+Δ)·log³ n) rounds.
func RunDiscoverEID(g *Graph, opts Options) (AllToAllResult, error) {
	return core.DiscoverEID(g, opts.simConfig())
}

// RunUnified runs the combined algorithm of Theorem 20: push-pull
// interleaved with the spanner-based algorithm (General EID when latencies
// are known, the discovery variant otherwise); completion is twice the
// faster component's solo time.
func RunUnified(g *Graph, source NodeID, knownLatencies bool, opts Options) (UnifiedResult, error) {
	return core.Unified(g, source, knownLatencies, opts.simConfig())
}

// ---- Live runtime ----
//
// The functions above run protocols inside the deterministic lockstep round
// simulator. The live runtime below executes the *same* protocol state
// machines over real concurrent transports, multiplexing hosted nodes onto a
// sharded event loop (O(shards) goroutines and timers, not O(nodes)) and
// mapping each edge latency to an actual wall-clock delay (see
// internal/live). It is the bridge from the paper's model to a deployed
// gossip system.

// DefaultLiveTick is the default wall-clock duration of one live round.
const DefaultLiveTick = live.DefaultTick

// LiveProtocol describes a protocol runnable on the live runtime: a
// per-node handler factory plus the node-local completion goal.
type LiveProtocol = live.Protocol

// LiveTransport moves messages between live nodes; see NewLiveTCPTransport
// for the multi-process implementation. RunLive builds an in-process
// channel transport automatically.
type LiveTransport = live.Transport

// LiveResult reports a live run, including its fault ledger (Faults) and
// per-node crash/recovery outcomes.
type LiveResult = live.Result

// LiveCrash schedules a crash-recovery epoch for one node: fail-stop at sweep
// At of the node's shard; if RecoverAt > 0, rejoin at that sweep with cleared
// protocol state. RecoverAt == 0 means the crash is permanent. Sweeps count
// as LiveOptions.MaxTicks does: held ones included, about one per tick.
type LiveCrash = live.CrashPlan

// LiveFaultConfig is a deterministic fault plan for a live run: whole-run
// message drop and duplication probabilities and latency jitter, plus staged
// Phases (partitions, one-way cuts, flapping links, slow nodes, loss
// bursts). Every fault decision is a pure function of (Seed, phase, message
// identity), so a fault plan replays identically across runs.
type LiveFaultConfig = live.FaultConfig

// LiveFaultPhase is one staged fault epoch of a LiveFaultConfig, active over
// a tick window (see LiveCutBetween for deriving a Cut from a node
// bipartition).
type LiveFaultPhase = live.FaultPhase

// LiveFaultCounts aggregates fault accounting across the transport stack;
// Dropped() totals losses from every cause.
type LiveFaultCounts = live.FaultCounts

// LiveOverloadCounts is a live transport's overload ledger. Nothing sheds,
// so every count reads zero.
type LiveOverloadCounts = live.OverloadCounts

// LiveDrainReport summarizes a graceful transport drain: what flushed, what
// the deadline abandoned, and whether the drain finished clean.
type LiveDrainReport = live.DrainReport

// LiveDrainer is implemented by transports supporting graceful shutdown;
// the TCP and channel transports and the chaos decorator implement it.
type LiveDrainer = live.Drainer

// LiveCutBetween returns the IDs of all edges between node sets a and b —
// the cut's edge set, ready for LiveFaultPhase.Cut.
func LiveCutBetween(g *Graph, a, b []NodeID) []int {
	return live.CutBetween(g, a, b)
}

// ErrLiveMaxTicks reports that a live run stopped with every hosted node
// halted — tick budget spent or schedule ended — before the protocol's goal
// was reached. This is the fail-closed outcome: a fixed-schedule protocol
// whose window was cut by a fault surfaces this error instead of hanging.
var ErrLiveMaxTicks = live.ErrMaxTicks

// LiveOptions configures a live run. The zero value is usable.
type LiveOptions struct {
	// Seed makes per-node randomness reproducible and identical to a
	// simulator run with the same seed.
	Seed uint64
	// Tick is the wall-clock duration of one protocol round (0 = 1ms).
	// An edge of latency ℓ delays a request by ⌈ℓ/2⌉ ticks and its
	// response by ⌊ℓ/2⌋, as in the simulator.
	Tick time.Duration
	// MaxTicks bounds the run in sweeps, held ones included (0 = a
	// generous default). A runtime that keeps up sweeps once per tick, so a
	// run that never completes returns ErrLiveMaxTicks after about
	// MaxTicks·Tick, even while backpressure holds its nodes.
	MaxTicks int
	// NHint is the polynomial size bound known to nodes (0 = exact).
	NHint int
	// Crashes schedules crash-recovery epochs: Crashes[v] halts node v at
	// sweep At, counted as MaxTicks counts (it stops ticking and drops
	// messages unanswered) and, when RecoverAt is set, rejoins it there with
	// cleared state. Completion is
	// defined among reachable survivors: permanently crashed nodes don't
	// count; recovering nodes do.
	Crashes map[NodeID]LiveCrash
	// Faults, when non-nil, wraps the run's transport in a fault-injecting
	// decorator (drops, dups, jitter, staged phases); the resulting ledger
	// lands in LiveResult.Faults.
	Faults *LiveFaultConfig
	// Nodes restricts this runtime to a subset of the graph's nodes (nil =
	// all) — the multi-process deployment case; see RunLiveTransport.
	Nodes []NodeID
	// Linger keeps serving peers' requests this long after local
	// completion, so slower runtimes in a cluster can still pull from us.
	Linger time.Duration
	// Membership, when non-nil, runs a SWIM failure detector on every
	// hosted node: nodes bootstrap from a seed peer list, probe each other
	// over the run's transport, and completion counts only members
	// currently believed alive. See LiveMembership.
	Membership *LiveMembership
	// Interrupt, when non-nil, requests a graceful stop when it becomes
	// readable: hosted nodes broadcast a membership leave, serve through a
	// short grace window, and the run returns with Interrupted set. Pair it
	// with the transport's Drain for a full graceful shutdown.
	Interrupt <-chan struct{}
	// DrainTicks is the post-interrupt grace period in ticks (0 = default).
	DrainTicks int
	// Shards is the number of event-loop workers hosted nodes are
	// multiplexed onto (0 = one per available CPU core, and never more than
	// the hosted node count). Goroutine and timer cost scale with shards,
	// not nodes.
	Shards int
}

func (o LiveOptions) liveOptions() live.Options {
	return live.Options{
		Seed:       o.Seed,
		Tick:       o.Tick,
		MaxTicks:   o.MaxTicks,
		NHint:      o.NHint,
		Nodes:      o.Nodes,
		Crashes:    o.Crashes,
		Linger:     o.Linger,
		Membership: o.Membership,
		Interrupt:  o.Interrupt,
		DrainTicks: o.DrainTicks,
		Shards:     o.Shards,
	}
}

// faultWrap applies o.Faults to tr, defaulting the fault plan's tick scale
// to the run's tick.
func (o LiveOptions) faultWrap(tr LiveTransport) LiveTransport {
	if o.Faults == nil {
		return tr
	}
	cfg := *o.Faults
	if cfg.Tick <= 0 {
		cfg.Tick = o.Tick
	}
	return live.NewFaultTransport(tr, cfg)
}

// LiveMembership configures SWIM-style dynamic membership for a live run:
// the seed peer list nodes bootstrap from, the probe/suspicion timing knobs,
// and the per-packet piggyback budget. Zero fields take the defaults of
// internal/member; see docs/ALGORITHMS.md for the state machine.
type LiveMembership = live.MembershipConfig

// Membership states of a node's local view, in escalation order. Only a
// refutation (an alive record with a strictly higher incarnation) revives a
// suspected or dead member. LiveResult.Members reports each node's final
// table.
const (
	MemberAlive   = member.Alive
	MemberSuspect = member.Suspect
	MemberDead    = member.Dead
)

// LivePushPull returns the live protocol for push-pull broadcast from
// source — the identical state machine RunPushPull drives in the simulator.
func LivePushPull(source NodeID) LiveProtocol {
	return core.PushPullLive(source, core.ModePushPull)
}

// LiveFlood returns the live protocol for deterministic flooding.
func LiveFlood(source NodeID) LiveProtocol {
	return core.FloodLive(source)
}

// LiveRRBroadcast returns the live protocol for RR Broadcast over an
// oriented spanner of the latency-<=k subgraph — the same fixed-schedule
// state machine RunRRBroadcast drives in the simulator. The seed and nHint
// must come from the run's LiveOptions so every process builds the identical
// spanner. Unlike push-pull, the fixed schedule does not reroute around
// faults: under partitions or crashes it fails closed (Completed=false)
// rather than self-healing.
func LiveRRBroadcast(g *Graph, k, spannerK int, opts LiveOptions) (LiveProtocol, error) {
	return core.RRBroadcastLive(g, k, spannerK, opts.NHint, opts.Seed)
}

// RunLive executes a protocol on the live wall-clock runtime over an
// in-process channel transport hosting every node: a sharded event loop,
// real latency delays, same seeded randomness as the simulator.
func RunLive(g *Graph, proto LiveProtocol, opts LiveOptions) (LiveResult, error) {
	tr := opts.faultWrap(live.NewChanTransport(g.N()))
	defer tr.Close()
	o := opts.liveOptions()
	o.Nodes = nil // the in-process transport hosts everyone
	return live.Run(g, proto, tr, o)
}

// RunLiveTransport executes a protocol on the live runtime over a
// caller-supplied transport, hosting only opts.Nodes (nil = all). This is
// the multi-process entry point: each process hosts a node subset behind a
// NewLiveTCPTransport and the cluster jointly executes the protocol. When
// opts.Faults is set, the transport is wrapped in a fault injector for the
// run. The caller keeps ownership of the transport and must Close it
// after the run (the wrapper closes with it).
func RunLiveTransport(g *Graph, proto LiveProtocol, tr LiveTransport, opts LiveOptions) (LiveResult, error) {
	return live.Run(g, proto, opts.faultWrap(tr), opts.liveOptions())
}

// LiveTCPTransport is the multi-process transport: length-prefixed binary
// frames over TCP, batched writes, one listener per process.
type LiveTCPTransport = live.TCPTransport

// NewLiveTCPTransport returns a TCP transport listening on listenAddr and
// hosting the given nodes; map the remaining nodes to their processes'
// addresses with SetPeers before running. See cmd/gossipd for the CLI.
func NewLiveTCPTransport(listenAddr string, local []NodeID) (*LiveTCPTransport, error) {
	return live.NewTCPTransport(listenAddr, local)
}

// NewLiveTCPTransportFromListener is NewLiveTCPTransport over an
// already-bound listener, so a supervisor can reserve ports race-free and
// hand each daemon its socket (see cmd/gossipctl's fd-passing launch).
func NewLiveTCPTransportFromListener(ln net.Listener, local []NodeID) (*LiveTCPTransport, error) {
	return live.NewTCPTransportFromListener(ln, local)
}

// Conductance reports the weighted conductance analysis of a graph.
type Conductance = cut.Result

// WeightedConductance computes φ*(G) and the critical latency ℓ*
// (Definition 2), exactly for n <= 24 and heuristically above.
func WeightedConductance(g *Graph, seed uint64) (Conductance, error) {
	return cut.WeightedConductance(g, seed)
}

// SetAnalysisWorkers caps the number of concurrent workers analysis fan-outs
// (the φ_ℓ ladder, experiment sweeps) may use, and returns the previous cap.
// n <= 1 forces fully sequential evaluation. Results never depend on the
// cap: parallel runs merge in index order and are byte-identical to
// sequential ones. The default is GOMAXPROCS.
func SetAnalysisWorkers(n int) int { return par.SetMaxWorkers(n) }
