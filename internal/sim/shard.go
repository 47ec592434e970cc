package sim

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"gossip/internal/par"
)

// NodeLocal marks a handler whose callbacks touch only its own node's state
// and call Initiate only from Tick. A protocol declares it by embedding
// NodeLocal in its handler type. When every handler of a network carries
// the mark, Run may tick and deliver the nodes of different shards at once:
// one node's callbacks still run one at a time and in exactly the
// sequential order, so such a handler cannot tell the difference.
type NodeLocal struct{}

func (NodeLocal) nodeLocal() {}

// nodeLocalHandler is the interface a NodeLocal embedding satisfies.
type nodeLocalHandler interface{ nodeLocal() }

// shardFloor is the fewest nodes a shard is given: a network of n nodes runs
// on at most n/shardFloor shards. Below it a shard's round is too short to
// pay for the handoff between shards; docs/PERFORMANCE.md has the
// measurement that set it.
const shardFloor = 1024

// shardCount is how many shards Run gives the network: one whenever a
// handler is not node-local or the run is traced or congestion-bounded
// (the bounded requeue's order is not the sharded merge's), else up to one
// per par worker and per shardFloor nodes.
func (nw *Network) shardCount() int {
	w := par.MaxWorkers()
	if n := len(nw.nodes) / shardFloor; n < w {
		w = n
	}
	if w <= 1 || nw.cfg.Trace != nil || nw.cfg.MaxResponsesPerRound > 0 {
		return 1
	}
	for u := range nw.nodes {
		if _, ok := nw.nodes[u].handler.(nodeLocalHandler); !ok {
			return 1
		}
	}
	return w
}

// shard is one worker's part of the network: a contiguous node range with
// its own calendar, event pool and counters. A one-shard network runs
// everything on shard 0, on the goroutine that called Run.
//
// On a sharded network every event goes into the sending shard's outbox for
// the destination's shard, never straight onto a calendar, and the
// destination files it at its next phase (the barrier between the two
// orders the hand-over). A round is two phases on every shard: file the
// requests and deliver the slot; then file the responses and tick.
//
//   - Requests, staged by the tick, are filed at the start of the next
//     round. The tick stages them in node order, and the shards are filed
//     in shard order, which is node order: each calendar slot gets the
//     requests exactly as the sequential tick appends them.
//   - Responses, staged by the delivery, are filed before the tick of the
//     same round. Each outbox holds them in the order its shard served the
//     requests, which is ascending initiation round; the filer merges the
//     outboxes by initiation round. A node initiates once per round, so the
//     responses to one node arrive in exactly the sequential order. A
//     response with no delay left (ℓ = 1, or FullRTTDelivery) is delivered
//     as it is filed: after every event of the round's slot and before its
//     initiator's tick, where the sequential scan delivers it.
//
// A phase writes only the outboxes the next phase reads, and reads only
// those the last one wrote, so one set of outboxes serves every round.
// A node-local handler observes only its own node's event order, so the
// result is bit-identical to the one-shard engine's.
type shard struct {
	nw     *Network
	id     int
	lo, hi int // owned nodes [lo, hi)
	// ring is the event calendar: ring[r % len(ring)] holds the events bound
	// for this shard's nodes that complete at absolute round r. Its size
	// covers the largest possible delivery delay (maxLatency under
	// FullRTTDelivery, ⌈maxLatency/2⌉ otherwise) plus the +1 congestion
	// requeue, and grows on demand if a latency is raised after
	// construction.
	ring [][]*event
	// free is the event free list: delivered events return here and are
	// reused by later initiations, so steady-state delivery does not
	// allocate. An event goes home to its initiator's shard as a response,
	// so the pools stay balanced.
	free     []*event
	inFlight int // events this shard scheduled minus those it delivered
	metrics  Metrics
	active   bool // some node of the shard was not done at its last tick
	// reqOut[d] and respOut[d] are the outboxes to shard d (sharded runs).
	reqOut, respOut [][]staged
	pos             []int    // merge cursors over the shards' respOut
	panicked        any      // a handler panic caught on a worker, rethrown by Run
	_               [64]byte // keeps the next shard's counters off these lines
}

// staged is an event in an outbox, with what filing it needs, so that the
// filer does not touch the event itself: the round it is due and the round
// its exchange began (the responses' merge key).
type staged struct {
	ev       *event
	at, init int32
}

// getEvent pops a pooled event, allocating a fresh block when the pool is
// empty. All fields are overwritten by the caller.
func (sh *shard) getEvent() *event {
	if n := len(sh.free); n > 0 {
		ev := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return ev
	}
	blk := make([]event, eventBlockSize)
	for i := 1; i < len(blk); i++ {
		sh.free = append(sh.free, &blk[i])
	}
	return &blk[0]
}

// putEvent returns a delivered event to the pool. The payload reference is
// dropped so protocol state can be collected.
func (sh *shard) putEvent(ev *event) {
	ev.payload = nil
	sh.free = append(sh.free, ev)
}

// send puts ev in flight toward absolute round at: onto this shard's
// calendar, or, sharded, into the outbox to ev.to's shard.
func (sh *shard) send(at int, ev *event) {
	sh.inFlight++
	nw := sh.nw
	if !nw.sharded {
		sh.schedule(at, ev)
		return
	}
	d := nw.owner(ev.to)
	e := staged{ev: ev, at: int32(at), init: ev.initiatedAt}
	if ev.kind == evRequest {
		sh.reqOut[d] = append(sh.reqOut[d], e)
	} else {
		sh.respOut[d] = append(sh.respOut[d], e)
	}
}

// schedule places ev on the calendar for absolute round at. The ring is
// sized for the graph's maximum latency at construction; it grows (rarely)
// if a latency was raised after the network was built.
func (sh *shard) schedule(at int, ev *event) {
	if at-sh.nw.round >= len(sh.ring) {
		sh.growRing(at - sh.nw.round + 1)
	}
	i := at % len(sh.ring)
	sh.ring[i] = append(sh.ring[i], ev)
}

// growRing resizes the calendar to hold at least need future rounds,
// rehashing live slots by their absolute round. All live events sit in
// rounds [round, round+len(ring)), which makes the absolute round of slot i
// recoverable.
func (sh *shard) growRing(need int) {
	old := sh.ring
	round := sh.nw.round
	size := len(old) * 2
	for size < need {
		size *= 2
	}
	fresh := make([][]*event, size)
	for i, evs := range old {
		if len(evs) == 0 {
			continue
		}
		r := round + ((i-round%len(old))+len(old))%len(old)
		fresh[r%size] = evs
	}
	sh.ring = fresh
}

// deliver processes phase A of the round for the shard's nodes: request
// arrivals (which generate response events, possibly delivered in this same
// round when the remaining delay is zero) and response arrivals. On one
// shard, zero-delay responses are appended to the current slot during the
// scan and flushed by the same loop, preserving the old map-based engine's
// event order exactly. A handler callback may grow the slot (a zero-delay
// response) or the whole ring (an Initiate that outgrows it, which moves the
// slot), so the scan re-reads the slot when it reaches the end of its copy,
// and recomputes the slot's index only when the ring changed size. Events
// below the copy's length never change mid-scan.
func (sh *shard) deliver() {
	nw := sh.nw
	traced := nw.cfg.Trace != nil
	size := len(sh.ring)
	i := nw.round % size
	slot := sh.ring[i]
	for k := 0; ; k++ {
		if k >= len(slot) {
			if len(sh.ring) != size {
				size = len(sh.ring)
				i = nw.round % size
			}
			if slot = sh.ring[i]; k >= len(slot) {
				break
			}
		}
		ev := slot[k]
		sh.inFlight--
		if nw.crashed[ev.to] {
			// Fail-stop: a crashed node neither answers requests nor
			// consumes responses; the message is lost.
			sh.putEvent(ev)
			continue
		}
		st := &nw.nodes[ev.to]
		if ev.kind == evResponse {
			sh.complete(st, ev)
			continue
		}
		if bound := nw.cfg.MaxResponsesPerRound; bound > 0 {
			if st.served >= bound {
				// In-degree bound reached: the request waits in the
				// responder's queue until a later round (not traced —
				// only the eventual delivery is an observable event).
				sh.send(nw.round+1, ev)
				continue
			}
			st.served++
		}
		st.load.Answered++
		if traced {
			nw.cfg.Trace(TraceEvent{Kind: TraceRequest, Round: nw.round, From: int(ev.from), To: int(ev.to), EdgeID: int(ev.edgeID), Latency: int(ev.latency)})
		}
		respPayload := st.handler.OnRequest(&st.ctx, Request{
			From:      int(ev.from),
			EdgeIndex: int(ev.toIdx),
			Payload:   ev.payload,
		})
		// The request's event travels back as the response.
		ev.kind = evResponse
		ev.from, ev.to = ev.to, ev.from
		ev.toIdx, ev.backIdx = ev.backIdx, ev.toIdx
		ev.payload = respPayload
		sh.send(nw.round+nw.respDelay(ev.latency), ev)
		sh.metrics.Responses++
		sh.metrics.Bytes += PayloadSize(respPayload)
	}
	// Reset the slot, keeping its backing array for a future round. Entries
	// are nilled so the only live references to pooled events are the pool's.
	for j := range slot {
		slot[j] = nil
	}
	sh.ring[i] = slot[:0]
}

// complete delivers response ev to its initiator st and recycles the event.
func (sh *shard) complete(st *nodeState, ev *event) {
	nw := sh.nw
	if nw.cfg.Trace != nil {
		nw.cfg.Trace(TraceEvent{Kind: TraceResponse, Round: nw.round, From: int(ev.from), To: int(ev.to), EdgeID: int(ev.edgeID), Latency: int(ev.latency)})
	}
	st.handler.OnResponse(&st.ctx, Response{
		From:        int(ev.from),
		EdgeIndex:   int(ev.toIdx),
		Payload:     ev.payload,
		Latency:     int(ev.latency),
		InitiatedAt: int(ev.initiatedAt),
	})
	sh.putEvent(ev)
}

// tick runs phase B for the shard's nodes: every non-done handler gets a
// Tick. It records whether any of them is still active (not done).
func (sh *shard) tick() {
	active := false
	nodes := sh.nw.nodes[sh.lo:sh.hi]
	crashed := sh.nw.crashed[sh.lo:sh.hi]
	for u := range nodes {
		st := &nodes[u]
		st.initiated = false
		if crashed[u] || st.handler.Done() {
			continue
		}
		active = true
		st.handler.Tick(&st.ctx)
	}
	sh.active = active
}

// fileRequests moves the requests every shard's last tick staged for this
// shard onto its calendar, in shard order.
func (sh *shard) fileRequests() {
	for _, src := range sh.nw.shards {
		box := src.reqOut[sh.id]
		for _, e := range box {
			sh.schedule(int(e.at), e.ev)
		}
		src.reqOut[sh.id] = box[:0]
	}
}

// fileResponses moves the responses every shard's delivery of this round
// staged for this shard onto its calendar, merging the outboxes by
// initiation round, and delivers those with no delay left on the spot.
func (sh *shard) fileResponses() {
	nw := sh.nw
	for {
		// The earliest initiation round still at the head of an outbox;
		// each outbox is ascending in it.
		next := int32(math.MaxInt32)
		for s, src := range nw.shards {
			if box := src.respOut[sh.id]; sh.pos[s] < len(box) && box[sh.pos[s]].init < next {
				next = box[sh.pos[s]].init
			}
		}
		if next == math.MaxInt32 {
			break
		}
		for s, src := range nw.shards {
			box, k := src.respOut[sh.id], sh.pos[s]
			for ; k < len(box) && box[k].init == next; k++ {
				e := box[k]
				if int(e.at) > nw.round {
					sh.schedule(int(e.at), e.ev)
					continue
				}
				sh.inFlight--
				if ev := e.ev; nw.crashed[ev.to] {
					sh.putEvent(ev)
				} else {
					sh.complete(&nw.nodes[ev.to], ev)
				}
			}
			sh.pos[s] = k
		}
	}
	for s, src := range nw.shards {
		src.respOut[sh.id] = src.respOut[sh.id][:0]
		sh.pos[s] = 0
	}
}

// phase names the part of a round a sharded network runs on all shards at
// once.
type phase uint8

const (
	// phaseDeliver files the last round's requests, then delivers the slot.
	phaseDeliver phase = iota
	// phaseTick files this round's responses, then ticks the nodes.
	phaseTick
	// phaseStop ends the workers.
	phaseStop
)

// run executes one phase on the shard, catching a handler panic so that Run
// can rethrow it once every shard has finished the phase.
func (sh *shard) run(ph phase) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicked = r
		}
	}()
	switch ph {
	case phaseDeliver:
		sh.fileRequests()
		sh.deliver()
	case phaseTick:
		sh.fileResponses()
		sh.tick()
	}
}

// phase runs ph on every shard, shard 0 on the calling goroutine, and
// returns when all have finished.
func (nw *Network) phase(ph phase) {
	nw.gate.open(ph)
	nw.shards[0].run(ph)
	nw.gate.main.wait(func() bool { return nw.gate.pending.Load() == 0 })
	for _, sh := range nw.shards {
		if p := sh.panicked; p != nil {
			sh.panicked = nil
			panic(p)
		}
	}
}

// work is shard sh's worker goroutine: it runs every phase the gate opens
// until phaseStop.
func (nw *Network) work(sh *shard, w *waiter) {
	defer nw.workers.Done()
	g := &nw.gate
	seen := uint32(0)
	for {
		w.wait(func() bool { return g.epoch.Load() != seen })
		seen = g.epoch.Load()
		ph := g.ph
		if ph == phaseStop {
			return
		}
		sh.run(ph)
		if g.pending.Add(-1) == 0 {
			g.main.wake()
		}
	}
}

// gate is the sharded round's barrier. The main goroutine publishes a phase
// and bumps epoch; each worker runs the phase and counts pending down; the
// last one wakes the main goroutine. A wait polls for a while before it
// parks when the process is not crowded (see spinBudget and crowded).
type gate struct {
	ph      phase
	epoch   atomic.Uint32
	pending atomic.Int32
	main    waiter
	workers []*waiter
}

// init readies the gate for w shards.
func (g *gate) init(w int) {
	procs := runtime.GOMAXPROCS(0)
	g.main.procs, g.main.ch = procs, make(chan struct{}, 1)
	g.workers = make([]*waiter, w-1)
	for k := range g.workers {
		g.workers[k] = &waiter{procs: procs, ch: make(chan struct{}, 1)}
	}
}

// open starts phase ph on every worker.
func (g *gate) open(ph phase) {
	g.ph = ph
	g.pending.Store(int32(len(g.workers)))
	g.epoch.Add(1)
	for _, w := range g.workers {
		w.wake()
	}
}

// liveShards counts the shards of every sharded network that Run has split
// and Close has not yet stopped: each is a goroutine with a round's work.
var liveShards atomic.Int32

// crowded reports whether more goroutines have work than there are
// processors: the shards of every live sharded network plus the cells
// par.Map is evaluating (a network nested in a par.Map cell counts twice,
// which errs toward parking). A crowded barrier parks at once, since a
// poller could keep out the very shard it waits for.
func crowded(procs int) bool {
	return int(liveShards.Load())+par.Running() > procs
}

// spinBudget is how long a waiter polls its condition before it parks. A
// round's shards finish within a few microseconds of each other, and a
// waiter that polls keeps its goroutine, and so its shard's data, on the
// same core; one that parks is woken wherever the scheduler finds room and
// leaves its cache behind. The poll yields the processor every few thousand
// checks, and a long wait still ends in a park.
const spinBudget = 500 * time.Microsecond

// waiter parks one goroutine until a condition holds.
type waiter struct {
	procs    int // GOMAXPROCS when the gate was made
	sleeping atomic.Bool
	ch       chan struct{} // capacity 1
}

// wait returns once ready reports true. Whoever makes it true calls wake
// afterwards.
func (w *waiter) wait(ready func() bool) {
	if ready() {
		return
	}
	if !crowded(w.procs) {
		start := time.Now()
		for i := 1; ; i++ {
			if ready() {
				return
			}
			if i%1024 == 0 {
				if time.Since(start) > spinBudget {
					break
				}
				if i%8192 == 0 {
					runtime.Gosched()
				}
			}
		}
	}
	for {
		w.sleeping.Store(true)
		if ready() {
			if !w.sleeping.Swap(false) {
				// A wake claimed the flag first; take its token.
				<-w.ch
			}
			return
		}
		<-w.ch
		if ready() {
			return
		}
	}
}

// wake unparks the waiter if it is parked (or about to park).
func (w *waiter) wake() {
	if w.sleeping.Swap(false) {
		w.ch <- struct{}{}
	}
}

// owner returns the shard that holds node v.
func (nw *Network) owner(v int32) int {
	lo, hi := 0, len(nw.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if v >= nw.starts[mid] {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// split partitions the nodes into w contiguous shards of about equal work,
// and starts a worker goroutine for every shard but the first. w = 1 leaves
// the network as NewNetwork built it.
//
// A node's work is weighed as a round of the random phone call, which
// most sharded runs are: its own exchange (the tick and the response) plus
// the requests it can expect when every neighbor v calls one of its deg(v)
// neighbors at random, 2 + Σ 1/deg(v). Weighing by degree instead put a
// Chung–Lu graph's hubs, which answer far fewer than deg requests, on a
// shard that finished in less than half the time of the other.
func (nw *Network) split(w int) {
	if w <= 1 {
		return
	}
	adj := nw.topology()
	n := len(nw.nodes)
	inv := make([]float64, n) // 1/deg
	for u := range inv {
		if d := adj.Degree(u); d > 0 {
			inv[u] = 1 / float64(d)
		}
	}
	weight := make([]float64, n)
	total := 0.0
	for u := range weight {
		weight[u] = 2
		for _, he := range adj.Row(u) {
			weight[u] += inv[he.To]
		}
		total += weight[u]
	}
	first := nw.shards[0]
	nw.shards = make([]*shard, w)
	nw.starts = make([]int32, w)
	nw.sharded = true
	u, acc := 0, 0.0
	for k := range nw.shards {
		sh := first
		if k > 0 {
			sh = &shard{nw: nw, ring: make([][]*event, len(first.ring))}
		}
		sh.id, sh.lo = k, u
		goal := total * float64(k+1) / float64(w)
		if k == w-1 {
			goal = math.Inf(1)
		}
		for u < n && acc < goal {
			acc += weight[u]
			u++
		}
		sh.hi = u
		// One allocation for the shard's two outbox rows, padded so that
		// no other shard's rows share a cache line with them: every staged
		// event writes a row entry.
		rows := make([][]staged, 2*w+8)
		sh.reqOut, sh.respOut = rows[:w], rows[w:2*w]
		// The merge cursors are written once per merge step; the padding
		// keeps another shard's cursors off their line.
		sh.pos = make([]int, w, w+8)
		nw.shards[k] = sh
		nw.starts[k] = int32(sh.lo)
		for v := sh.lo; v < sh.hi; v++ {
			nw.nodes[v].env.sh = sh
		}
	}
	liveShards.Add(int32(w))
	nw.gate.init(w)
	for k, wt := range nw.gate.workers {
		nw.workers.Add(1)
		go nw.work(nw.shards[k+1], wt)
	}
}
