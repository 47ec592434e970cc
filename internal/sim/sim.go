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
package sim

import (
	"errors"
	"fmt"
	"math/rand"

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

type nodeState struct {
	id        graph.NodeID
	handler   Handler
	env       nodeEnv
	ctx       Context
	initiated bool // initiated an exchange this round
	served    int  // requests answered this round (MaxResponsesPerRound)
	crashed   bool
}

// eventBlockSize is how many pooled events are allocated at once when the
// free list runs dry.
const eventBlockSize = 64

// Network drives a set of handlers over a latency-weighted graph.
//
// Its hot path runs on three dense structures. adj is the graph's packed
// half-edge table (graph.AdjCSR): Initiate reads one 16-byte entry for the
// neighbor, the latency, the edge id and the edge's index at the responder,
// so no per-node slice header and no second index array are touched. ring
// is the round calendar of pooled *event pointers, and free is the pool.
// Storing events by value in the ring slots was measured as no faster and
// rejected: every slot keeps its peak capacity, which raised the benchmark's
// peak RSS from about 185 to over 300 MiB.
type Network struct {
	g   *graph.Graph
	cfg Config
	// adj is g's packed topology, rebuilt by topology when a SetLatency
	// after construction has moved g's version past it.
	adj *graph.AdjCSR
	// nodes is indexed by NodeID; states are stored contiguously so that
	// per-node engine structures cost one allocation, not n.
	nodes []nodeState
	// ring is the event calendar: ring[r % len(ring)] holds the events that
	// complete at absolute round r. Its size covers the largest possible
	// delivery delay (maxLatency under FullRTTDelivery, ⌈maxLatency/2⌉
	// otherwise) plus the +1 congestion requeue, and grows on demand if a
	// latency is raised after construction.
	ring [][]*event
	// free is the event free list: delivered events return here and are
	// reused by later initiations, so steady-state delivery does not allocate.
	free     []*event
	inFlight int
	round    int
	metrics  Metrics
	nextExch uint64
	loads    []NodeLoad
	closed   bool
}

// NewNetwork creates a network over g. Attach handlers with SetHandler (or
// SetProc) for every node before calling Run.
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
	return &Network{
		g:     g,
		cfg:   cfg,
		adj:   graph.BuildAdjCSR(g),
		nodes: make([]nodeState, g.N()),
		ring:  make([][]*event, ringSize),
		loads: make([]NodeLoad, g.N()),
	}
}

// topology returns the packed view of g, re-packing it first if g was
// mutated since it was built (a latency raised mid-run).
func (nw *Network) topology() *graph.AdjCSR {
	if nw.adj.Version() != nw.g.Version() {
		nw.adj = graph.BuildAdjCSR(nw.g)
	}
	return nw.adj
}

// getEvent pops a pooled event, allocating a fresh block when the pool is
// empty. All fields are overwritten by the caller.
func (nw *Network) getEvent() *event {
	if n := len(nw.free); n > 0 {
		ev := nw.free[n-1]
		nw.free = nw.free[:n-1]
		return ev
	}
	blk := make([]event, eventBlockSize)
	for i := 1; i < len(blk); i++ {
		nw.free = append(nw.free, &blk[i])
	}
	return &blk[0]
}

// putEvent returns a delivered event to the pool. The payload reference is
// dropped so protocol state can be collected.
func (nw *Network) putEvent(ev *event) {
	ev.payload = nil
	nw.free = append(nw.free, ev)
}

// Graph returns the underlying graph.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// Round returns the current round number.
func (nw *Network) Round() int { return nw.round }

// NHint returns the network-size upper bound known to nodes.
func (nw *Network) NHint() int { return nw.cfg.NHint }

// Metrics returns a copy of the accumulated metrics.
func (nw *Network) Metrics() Metrics { return nw.metrics }

// Loads returns a copy of the per-node traffic loads.
func (nw *Network) Loads() []NodeLoad {
	out := make([]NodeLoad, len(nw.loads))
	copy(out, nw.loads)
	return out
}

// SetHandler attaches a handler to node u.
func (nw *Network) SetHandler(u graph.NodeID, h Handler) {
	st := &nw.nodes[u]
	st.id = u
	st.handler = h
	st.env = nodeEnv{nw: nw, node: st}
	st.ctx = Context{env: &st.env}
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
	he := c.env.Graph().Neighbors(c.env.NodeID())[idx]
	ev := EdgeView{To: he.To, Index: idx, EdgeID: he.ID}
	if c.env.KnownLatencies() {
		ev.Latency = he.Latency
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
// every runtime that preserves its tick count. The *rand.Rand comes from a
// pool (reseeded on acquisition, so the stream is unaffected) and must not be
// retained after the run.
func (c *Context) Rand() *rand.Rand {
	if c.rand == nil {
		c.rand = rng.Acquire(c.env.Seed(), uint64(c.env.NodeID())+1)
	}
	return c.rand
}

// Initiate starts an exchange on the node's idx-th edge carrying the given
// request payload. At most one initiation per node per round is allowed; a
// second call in the same round returns an error. It returns the exchange ID.
func (c *Context) Initiate(idx int, payload Payload) (uint64, error) {
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

// schedule places ev on the ring calendar for absolute round at. The ring is
// sized for the graph's maximum latency at construction; it grows (rarely)
// if a latency was raised after the network was built.
func (nw *Network) schedule(at int, ev *event) {
	if at-nw.round >= len(nw.ring) {
		nw.growRing(at - nw.round + 1)
	}
	i := at % len(nw.ring)
	nw.ring[i] = append(nw.ring[i], ev)
	nw.inFlight++
}

// growRing resizes the calendar to hold at least need future rounds,
// rehashing live slots by their absolute round. All live events sit in
// rounds [nw.round, nw.round+len(ring)), which makes the absolute round of
// slot i recoverable.
func (nw *Network) growRing(need int) {
	old := nw.ring
	size := len(old) * 2
	for size < need {
		size *= 2
	}
	fresh := make([][]*event, size)
	for i, evs := range old {
		if len(evs) == 0 {
			continue
		}
		r := nw.round + ((i-nw.round%len(old))+len(old))%len(old)
		fresh[r%size] = evs
	}
	nw.ring = fresh
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
	for u := range nw.nodes {
		st := &nw.nodes[u]
		st.handler.Start(&st.ctx)
	}
	if pred != nil && pred(nw) {
		return RunResult{Metrics: nw.metrics, Completed: true}, nil
	}
	for nw.round = 1; nw.round <= nw.cfg.MaxRounds; nw.round++ {
		nw.applyCrashes()
		if nw.cfg.MaxResponsesPerRound > 0 {
			for u := range nw.nodes {
				nw.nodes[u].served = 0
			}
		}
		nw.deliver()
		active := nw.tick()
		nw.metrics.Rounds = nw.round
		if pred != nil && pred(nw) {
			return RunResult{Metrics: nw.metrics, Completed: true}, nil
		}
		if nw.allDone() {
			return RunResult{Metrics: nw.metrics, Completed: pred == nil}, nil
		}
		if !active && nw.inFlight == 0 {
			return RunResult{Metrics: nw.metrics}, fmt.Errorf("%w (round %d)", ErrStalled, nw.round)
		}
	}
	nw.metrics.Rounds = nw.cfg.MaxRounds
	return RunResult{Metrics: nw.metrics}, fmt.Errorf("%w (%d)", ErrMaxRounds, nw.cfg.MaxRounds)
}

// deliver processes phase A of the round: request arrivals (which generate
// response events, possibly delivered in this same round when the remaining
// delay is zero) and response arrivals. Zero-delay responses are appended to
// the current slot during the scan and flushed by the same loop, preserving
// the old map-based engine's event order exactly. A handler callback may grow
// the slot (a zero-delay response) or the whole ring (an Initiate that
// outgrows it, which moves the slot), so the scan re-reads the slot when it
// reaches the end of its copy, and recomputes the slot's index only when the
// ring changed size. Events below the copy's length never change mid-scan.
func (nw *Network) deliver() {
	traced := nw.cfg.Trace != nil
	size := len(nw.ring)
	i := nw.round % size
	slot := nw.ring[i]
	for k := 0; ; k++ {
		if k >= len(slot) {
			if len(nw.ring) != size {
				size = len(nw.ring)
				i = nw.round % size
			}
			if slot = nw.ring[i]; k >= len(slot) {
				break
			}
		}
		ev := slot[k]
		nw.inFlight--
		if nw.nodes[ev.to].crashed {
			// Fail-stop: a crashed node neither answers requests nor
			// consumes responses; the message is lost.
			nw.putEvent(ev)
			continue
		}
		switch ev.kind {
		case evRequest:
			st := &nw.nodes[ev.to]
			if nw.cfg.MaxResponsesPerRound > 0 && st.served >= nw.cfg.MaxResponsesPerRound {
				// In-degree bound reached: the request waits in the
				// responder's queue until a later round (not traced —
				// only the eventual delivery is an observable event).
				nw.schedule(nw.round+1, ev)
				continue
			}
			st.served++
			nw.loads[ev.to].Answered++
			if traced {
				nw.cfg.Trace(TraceEvent{Kind: TraceRequest, Round: nw.round, From: int(ev.from), To: int(ev.to), EdgeID: int(ev.edgeID), Latency: int(ev.latency)})
			}
			respPayload := st.handler.OnRequest(&st.ctx, Request{
				From:      int(ev.from),
				EdgeIndex: int(ev.toIdx),
				Payload:   ev.payload,
			})
			respDelay := int(ev.latency - (ev.latency+1)/2)
			if nw.cfg.FullRTTDelivery {
				respDelay = 0
			}
			// The request's event travels back as the response.
			ev.kind = evResponse
			ev.from, ev.to = ev.to, ev.from
			ev.toIdx, ev.backIdx = ev.backIdx, ev.toIdx
			ev.payload = respPayload
			nw.schedule(nw.round+respDelay, ev)
			nw.metrics.Responses++
			nw.metrics.Bytes += PayloadSize(respPayload)
		case evResponse:
			st := &nw.nodes[ev.to]
			if traced {
				nw.cfg.Trace(TraceEvent{Kind: TraceResponse, Round: nw.round, From: int(ev.from), To: int(ev.to), EdgeID: int(ev.edgeID), Latency: int(ev.latency)})
			}
			st.handler.OnResponse(&st.ctx, Response{
				From:        int(ev.from),
				EdgeIndex:   int(ev.toIdx),
				Payload:     ev.payload,
				Latency:     int(ev.latency),
				InitiatedAt: int(ev.initiatedAt),
			})
			nw.putEvent(ev)
		}
	}
	// Reset the slot, keeping its backing array for a future round. Entries
	// are nilled so the only live references to pooled events are the pool's.
	for j := range slot {
		slot[j] = nil
	}
	nw.ring[i] = slot[:0]
}

// tick runs phase B: every non-done handler gets a Tick. It reports whether
// any handler is still active (not done).
func (nw *Network) tick() bool {
	active := false
	for u := range nw.nodes {
		st := &nw.nodes[u]
		st.initiated = false
		if st.crashed || st.handler.Done() {
			continue
		}
		active = true
		st.handler.Tick(&st.ctx)
	}
	return active
}

// applyCrashes fail-stops the nodes whose crash round has arrived.
func (nw *Network) applyCrashes() {
	if len(nw.cfg.Crashes) == 0 {
		return
	}
	for v, r := range nw.cfg.Crashes {
		if r == nw.round && v >= 0 && v < len(nw.nodes) {
			nw.nodes[v].crashed = true
			nw.trace(TraceEvent{Kind: TraceCrash, Round: nw.round, From: v, To: -1})
		}
	}
}

// Crashed reports whether node v has fail-stopped.
func (nw *Network) Crashed(v graph.NodeID) bool { return nw.nodes[v].crashed }

func (nw *Network) allDone() bool {
	for u := range nw.nodes {
		st := &nw.nodes[u]
		if st.crashed {
			continue
		}
		if !st.handler.Done() {
			return false
		}
	}
	return true
}

// Close releases engine resources: it stops all coroutine handlers (waiting
// for their goroutines to exit) and returns the nodes' pooled random streams.
// Safe to call twice.
func (nw *Network) Close() {
	if nw.closed {
		return
	}
	nw.closed = true
	for u := range nw.nodes {
		st := &nw.nodes[u]
		if p, ok := st.handler.(*Proc); ok {
			p.stop()
		}
		if st.ctx.rand != nil {
			rng.Release(st.ctx.rand)
			st.ctx.rand = nil
		}
	}
}
