// Package sim implements the paper's communication model (Section 1) as a
// deterministic, round-driven network simulator:
//
//   - Nodes communicate over the edges of a latency-weighted graph in
//     synchronous rounds.
//   - In each round a node may initiate at most one exchange: it sends a
//     request to a chosen neighbor and automatically receives a response.
//     Over an edge of latency ℓ the request arrives after ⌈ℓ/2⌉ rounds and
//     the response after the remaining ⌊ℓ/2⌋ rounds, so the round trip takes
//     exactly ℓ rounds, as the model requires.
//   - Communication is non-blocking: a node may initiate a new exchange every
//     round even while earlier exchanges are in flight.
//   - Nodes know the identity of their neighbors and (optionally, Section 5)
//     the latency of adjacent edges; they learn an edge's latency after
//     completing an exchange over it.
//
// Protocols attach to nodes either as state machines (Handler) or as
// sequential coroutines (Proc, see proc.go), which the engine drives in
// lockstep with the round barrier.
//
// A network whose handlers are all node-local (see NodeLocal) and that is
// large enough runs each round on several shards at once, one goroutine per
// contiguous node range (see shard.go); every other network runs on one.
// Both give the same result bit for bit.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"gossip/internal/graph"
	"gossip/internal/rng"
)

// Payload is a protocol-defined message body. Payloads must be treated as
// immutable once passed to the engine: the request payload is captured at
// initiation time and delivered ⌈ℓ/2⌉ rounds later unchanged.
type Payload interface{}

// Sizer lets payloads report their size for message accounting.
type Sizer interface{ SizeBytes() int }

// EdgeView is a node's view of one incident edge. Latency is the true edge
// latency when the network is configured with known latencies, and 0
// (unknown) otherwise.
type EdgeView struct {
	To      graph.NodeID
	Index   int // index into the node's neighbor list
	EdgeID  int
	Latency int
}

// Response is delivered to the initiator when an exchange completes.
type Response struct {
	From        graph.NodeID
	EdgeIndex   int
	Payload     Payload
	Latency     int // the true edge latency, learned by completing the exchange
	InitiatedAt int
}

// Request is delivered to the responder when a request arrives.
type Request struct {
	From      graph.NodeID
	EdgeIndex int // index of the edge in the *responder's* neighbor list
	Payload   Payload
}

// Handler is the state-machine protocol interface. The engine calls Start
// once, then every round: first delivery callbacks (OnRequest/OnResponse) for
// arrivals, then Tick. A handler initiates exchanges via Context.Initiate.
type Handler interface {
	Start(ctx *Context)
	Tick(ctx *Context)
	OnRequest(ctx *Context, req Request) Payload
	OnResponse(ctx *Context, resp Response)
	// Done reports local termination; when every handler is done the run
	// stops. Handlers that never terminate locally should return false and
	// rely on the run predicate.
	Done() bool
}

// Config controls a Network.
type Config struct {
	KnownLatencies bool
	Seed           uint64
	MaxRounds      int // 0 means DefaultMaxRounds
	NHint          int // polynomial upper bound on n known to nodes; 0 = exact n
	// FullRTTDelivery delivers the request only at t+ℓ (response still at
	// t+ℓ). This is the "no pipelining" ablation; the default split delivery
	// (⌈ℓ/2⌉ + ⌊ℓ/2⌋) matches the round-trip semantics of the paper while
	// letting information flow one-way in ⌈ℓ/2⌉.
	FullRTTDelivery bool
	// Crashes schedules node crash failures: Crashes[v] = r makes node v
	// fail-stop at the beginning of round r. A crashed node no longer ticks,
	// drops incoming requests without responding (so a blocking exchange
	// with it never completes), and its in-flight initiations are lost. The
	// paper's conclusion notes push-pull is robust to such failures while
	// the spanner-based algorithms are not; this knob is the fault-injection
	// extension that measures it.
	Crashes map[graph.NodeID]int
	// Trace, when non-nil, receives every engine event (initiations,
	// deliveries, crashes) synchronously.
	Trace Tracer
	// MaxResponsesPerRound bounds how many incoming requests a node can
	// answer per round (0 = unlimited, the paper's base model). Excess
	// requests queue and are answered in FIFO order in later rounds, so
	// congestion at a hub stretches effective latencies. This implements the
	// restricted model raised in the paper's conclusion (Daum, Kuhn, Maus:
	// rumor spreading with bounded in-degree).
	MaxResponsesPerRound int
}

// DefaultMaxRounds bounds runs whose predicate never fires.
const DefaultMaxRounds = 2_000_000

// ErrMaxRounds reports that the round budget was exhausted before the
// completion predicate fired.
var ErrMaxRounds = errors.New("sim: max rounds exceeded")

// ErrStalled reports that no node is active and no event is in flight, yet
// the completion predicate has not fired.
var ErrStalled = errors.New("sim: network stalled before completion")

// Metrics aggregates the cost of a run.
type Metrics struct {
	Rounds          int
	Requests        int
	Responses       int
	Bytes           int
	EdgeActivations int
}

// Messages returns the total message count (requests + responses).
func (m Metrics) Messages() int { return m.Requests + m.Responses }

// add accumulates o's message counts into m (Rounds is the network's).
func (m *Metrics) add(o *Metrics) {
	m.Requests += o.Requests
	m.Responses += o.Responses
	m.Bytes += o.Bytes
	m.EdgeActivations += o.EdgeActivations
}

// NodeLoad reports one node's share of the traffic.
type NodeLoad struct {
	Initiated int // exchanges this node initiated
	Answered  int // requests this node answered
}

// Total returns the node's total handled messages.
func (l NodeLoad) Total() int { return l.Initiated + l.Answered }

type eventKind uint8

const (
	evRequest eventKind = iota + 1
	evResponse
)

// event is one pooled message on the calendar. A request's event is reused
// as its response: same edge, ends swapped. The fields are int32 so an event
// is 48 bytes, and the hot path assigns them one by one: a composite-literal
// copy compiled to a block copy that cost about a tenth of the simulator's
// CPU on the benchmark's ladder graphs.
type event struct {
	kind        eventKind
	from, to    int32
	edgeID      int32
	toIdx       int32 // index of the edge in the destination's neighbor list
	backIdx     int32 // index of the edge at the other end (for the next hop)
	latency     int32
	initiatedAt int32
	payload     Payload
}

// nodeState is one node's engine state. The fields a delivery touches come
// first, so that serving a request reads and writes one cache line.
type nodeState struct {
	handler   Handler
	load      NodeLoad
	initiated bool // initiated an exchange this round
	served    int  // requests answered this round (MaxResponsesPerRound)
	id        graph.NodeID
	env       nodeEnv
	ctx       Context
	// rand backs ctx.Rand in place, so a node's stream lives in its own
	// state, in node order, and not in a heap object that a node of
	// another shard may share a cache line with.
	rand nodeRand
}

// eventBlockSize is how many pooled events are allocated at once when the
// free list runs dry.
const eventBlockSize = 64

// Network drives a set of handlers over a latency-weighted graph.
//
// Its hot path runs on three dense structures. The graph's packed rows are
// the first: Initiate reads one 16-byte entry for the neighbor, the latency,
// the edge id and the edge's index at the responder, so no per-node slice
// header and no second index array are touched. Each
// shard's ring is the round calendar of pooled *event pointers, and its free
// list is the pool. Storing events by value in the ring slots was measured
// as no faster and rejected: every slot keeps its peak capacity, which
// raised the benchmark's peak RSS from about 185 to over 300 MiB.
type Network struct {
	g   *graph.Graph
	cfg Config
	// nodes is indexed by NodeID; states are stored contiguously so that
	// per-node engine structures cost one allocation, not n.
	nodes []nodeState
	// crashed[v] reports that v has fail-stopped. It lives apart from the
	// node states, which their shards write every round, so a predicate
	// that asks Crashed for every node reads lines no other core dirties.
	crashed []bool
	// shards partition the nodes into contiguous ranges in node order.
	// Until Run decides otherwise there is one, holding every node.
	shards []*shard
	// starts[i] is shards[i].lo, kept dense for owner.
	starts []int32
	// sharded is len(shards) > 1: events then travel through the shards'
	// outboxes instead of straight onto a calendar (see shard.go).
	sharded bool
	// gate hands the shards' workers their phases (sharded runs).
	gate    gate
	workers sync.WaitGroup

	round  int
	rounds int // Metrics.Rounds
	closed bool
}

// NewNetwork creates a network over g. Attach a handler (a state machine or
// a Proc) with SetHandler for every node before calling Run.
func NewNetwork(g *graph.Graph, cfg Config) *Network {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if cfg.NHint <= 0 {
		cfg.NHint = g.N()
	}
	ringSize := g.MaxLatency() + 2
	if ringSize < 4 {
		ringSize = 4
	}
	nw := &Network{
		g:       g,
		cfg:     cfg,
		nodes:   make([]nodeState, g.N()),
		crashed: make([]bool, g.N()),
	}
	nw.shards = []*shard{{nw: nw, hi: g.N(), ring: make([][]*event, ringSize)}}
	nw.starts = []int32{0}
	return nw
}

// reqDelay is how many rounds a request takes over an edge of latency lat.
func (nw *Network) reqDelay(lat int32) int {
	if nw.cfg.FullRTTDelivery {
		return int(lat)
	}
	return int(lat+1) / 2
}

// respDelay is how many rounds a response takes after its request arrived.
func (nw *Network) respDelay(lat int32) int {
	if nw.cfg.FullRTTDelivery {
		return 0
	}
	return int(lat - (lat+1)/2)
}

// Graph returns the underlying graph.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// Round returns the current round number.
func (nw *Network) Round() int { return nw.round }

// NHint returns the network-size upper bound known to nodes.
func (nw *Network) NHint() int { return nw.cfg.NHint }

// Metrics returns a copy of the accumulated metrics.
func (nw *Network) Metrics() Metrics {
	m := Metrics{Rounds: nw.rounds}
	for _, sh := range nw.shards {
		m.add(&sh.metrics)
	}
	return m
}

// Loads returns a copy of the per-node traffic loads.
func (nw *Network) Loads() []NodeLoad {
	out := make([]NodeLoad, len(nw.nodes))
	for u := range nw.nodes {
		out[u] = nw.nodes[u].load
	}
	return out
}

// SetHandler attaches a handler to node u.
func (nw *Network) SetHandler(u graph.NodeID, h Handler) {
	st := &nw.nodes[u]
	st.id = u
	st.handler = h
	st.env = nodeEnv{nw: nw, sh: nw.shards[0], node: st}
	st.rand.src = rng.NewSplitMix(nw.cfg.Seed, uint64(u)+1)
	st.rand.r = *rand.New(&st.rand.src)
	st.ctx = Context{env: &st.env, rand: &st.rand.r}
}

// Handler returns the handler attached to node u.
func (nw *Network) Handler(u graph.NodeID) Handler { return nw.nodes[u].handler }

// Context is a node's interface to the engine. A Context is only valid
// during the engine callbacks of its own node. It is a thin façade over an
// Env backend (see env.go), so any runtime that implements Env can drive
// the same Handler protocols.
type Context struct {
	env   Env
	rand  *rand.Rand
	views []EdgeView // lazily built, reused by Neighbors
}

// nodeRand is one node's random stream, stored in place.
type nodeRand struct {
	r   rand.Rand
	src rng.SplitMix
}

// ID returns the node's identifier.
func (c *Context) ID() graph.NodeID { return c.env.NodeID() }

// NHint returns the upper bound on the network size known to nodes.
func (c *Context) NHint() int { return c.env.NHint() }

// Round returns the current round.
func (c *Context) Round() int { return c.env.Round() }

// Degree returns the node's degree.
func (c *Context) Degree() int { return c.env.Graph().Degree(c.env.NodeID()) }

// Neighbor returns the node's idx-th incident edge. Latency is included only
// when the network has known latencies.
func (c *Context) Neighbor(idx int) EdgeView {
	e := c.env.Graph().Neighbors(c.env.NodeID())[idx]
	ev := EdgeView{To: int(e.To), Index: idx, EdgeID: int(e.ID)}
	if c.env.KnownLatencies() {
		ev.Latency = int(e.Lat)
	}
	return ev
}

// Neighbors returns all incident edges (see Neighbor for latency rules). The
// returned slice is cached and reused across calls (topology and latencies
// are fixed for the duration of a run); callers must treat it as read-only
// and must not retain it past the current callback.
func (c *Context) Neighbors() []EdgeView {
	hes := c.env.Graph().Neighbors(c.env.NodeID())
	if c.views == nil {
		c.views = make([]EdgeView, len(hes))
		for i := range hes {
			c.views[i] = c.Neighbor(i)
		}
	}
	return c.views
}

// Rand returns the node's deterministic random stream. The stream depends
// only on (seed, node), so a protocol makes identical random choices under
// every runtime that preserves its tick count. The round simulator keeps the
// stream in the node's own state, so it must not be retained after the run.
func (c *Context) Rand() *rand.Rand {
	if c.rand == nil {
		c.rand = rng.Stream(c.env.Seed(), uint64(c.env.NodeID())+1)
	}
	return c.rand
}

// Initiate starts an exchange on the node's idx-th edge carrying the given
// request payload. At most one initiation per node per round is allowed; a
// second call in the same round returns an error.
func (c *Context) Initiate(idx int, payload Payload) error {
	return c.env.Initiate(idx, payload)
}

// PayloadSize returns the accounted size of a payload: SizeBytes when the
// payload implements Sizer, 1 byte otherwise.
func PayloadSize(p Payload) int {
	if s, ok := p.(Sizer); ok {
		return s.SizeBytes()
	}
	return 1
}

// Predicate inspects global state each round; Run stops when it returns
// true. A nil predicate stops only when every handler is Done.
type Predicate func(nw *Network) bool

// RunResult reports the outcome of a run.
type RunResult struct {
	Metrics Metrics
	// Completed is true when the predicate fired (or all handlers finished).
	Completed bool
}

// Run starts every handler and executes rounds until the predicate fires,
// every handler reports Done, the round budget is exhausted (ErrMaxRounds),
// or no progress is possible (ErrStalled).
func (nw *Network) Run(pred Predicate) (RunResult, error) {
	if nw.closed {
		return RunResult{}, errors.New("sim: network already closed")
	}
	for u := range nw.nodes {
		if nw.nodes[u].handler == nil {
			return RunResult{}, fmt.Errorf("sim: node %d has no handler", u)
		}
	}
	defer nw.Close()
	nw.start()
	if pred != nil && pred(nw) {
		return RunResult{Metrics: nw.Metrics(), Completed: true}, nil
	}
	for nw.round = 1; nw.round <= nw.cfg.MaxRounds; nw.round++ {
		nw.applyCrashes()
		if nw.cfg.MaxResponsesPerRound > 0 {
			for u := range nw.nodes {
				nw.nodes[u].served = 0
			}
		}
		active := nw.step()
		nw.rounds = nw.round
		if pred != nil && pred(nw) {
			return RunResult{Metrics: nw.Metrics(), Completed: true}, nil
		}
		if nw.allDone() {
			return RunResult{Metrics: nw.Metrics(), Completed: pred == nil}, nil
		}
		if !active && nw.inFlight() == 0 {
			return RunResult{Metrics: nw.Metrics()}, fmt.Errorf("%w (round %d)", ErrStalled, nw.round)
		}
	}
	nw.rounds = nw.cfg.MaxRounds
	return RunResult{Metrics: nw.Metrics()}, fmt.Errorf("%w (%d)", ErrMaxRounds, nw.cfg.MaxRounds)
}

// start splits the network into shards and calls every handler's Start.
func (nw *Network) start() {
	nw.split(nw.shardCount())
	for u := range nw.nodes {
		st := &nw.nodes[u]
		st.handler.Start(&st.ctx)
	}
}

// step runs one round after the crashes: phase A delivers the arrivals
// (which answer requests, possibly with responses delivered in this same
// round when the remaining delay is zero), phase B ticks every handler. It
// reports whether any handler is still active (not done).
func (nw *Network) step() bool {
	if !nw.sharded {
		sh := nw.shards[0]
		sh.deliver()
		sh.tick()
		return sh.active
	}
	nw.phase(phaseDeliver)
	nw.phase(phaseTick)
	active := false
	for _, sh := range nw.shards {
		active = active || sh.active
	}
	return active
}

// inFlight counts the events scheduled and not yet delivered.
func (nw *Network) inFlight() int {
	n := 0
	for _, sh := range nw.shards {
		n += sh.inFlight
	}
	return n
}

// applyCrashes fail-stops the nodes whose crash round has arrived.
func (nw *Network) applyCrashes() {
	if len(nw.cfg.Crashes) == 0 {
		return
	}
	for v, r := range nw.cfg.Crashes {
		if r == nw.round && v >= 0 && v < len(nw.nodes) {
			nw.crashed[v] = true
			nw.trace(TraceEvent{Kind: TraceCrash, Round: nw.round, From: v, To: -1})
		}
	}
}

// Crashed reports whether node v has fail-stopped.
func (nw *Network) Crashed(v graph.NodeID) bool { return nw.crashed[v] }

func (nw *Network) allDone() bool {
	for u := range nw.nodes {
		if !nw.crashed[u] && !nw.nodes[u].handler.Done() {
			return false
		}
	}
	return true
}

// Close releases engine resources: it stops the shard workers and unwinds
// every coroutine handler's body. Safe to call twice.
func (nw *Network) Close() {
	if nw.closed {
		return
	}
	nw.closed = true
	if nw.sharded {
		nw.gate.open(phaseStop)
		nw.workers.Wait()
		liveShards.Add(-int32(len(nw.shards)))
	}
	for u := range nw.nodes {
		if p, ok := nw.nodes[u].handler.(*Proc); ok {
			p.Stop()
		}
	}
}
