package live

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the sharded event loop that multiplexes every locally hosted
// node onto a fixed set of workers. One shard owns a contiguous range of the
// runtime's hosted nodes as a dense slice, a flat calendar holding that
// range's delayed deliveries (ticks = protocol ticks), and a mailbox through
// which other shards and the transport's readers hand it messages. The shard
// goroutine is the only thing that touches its nodes' handler state, so the
// sim.Handler single-goroutine contract holds exactly as it did when each
// node had a goroutine of its own — but a runtime hosting 100k nodes now
// costs O(shards) goroutines and zero per-node tickers.
//
// A message moves by who sent it, not by who receives it (Runtime.sink):
//
//   - sent by a node of this shard to a node of this shard: armed on the
//     calendar, or appended to the current drain when its delay is zero —
//     no lock at all;
//   - sent by a node of this shard to another shard of the runtime: appended
//     to a per-destination outbox, which the end of every drain or sweep pass
//     hands over in one locked append — one lock per destination per pass;
//   - arriving from the network (the sender is hosted elsewhere): posted to
//     the owner's mailbox under its lock; the posting reader waits while
//     the mailbox already holds one sweep's worth (see post).
//
// No post is ever shed. What bounds memory instead is flow control on
// initiation: a shard's nodes start no new exchanges while any destination
// still holds more than one sweep's worth of the posts this shard handed it
// (its hosted count), or while the transport reports a congested connection
// (see congestion). Everything else goes on — the sweep still advances the
// shard's wall clock, crash and recovery plans and the failure detector, and
// the shard keeps firing its calendar, draining its mailbox and answering
// requests — so no response is ever refused and two shards waiting on each
// other both keep draining: backpressure cannot deadlock. A held sweep
// touches no node at all unless the run has membership (see sweep).

// post is one mailbox or outbox entry: a message and its remaining delivery
// delay in protocol ticks (<= 0 delivers on the owner's next drain).
type post struct {
	msg        Message
	delayTicks int64
}

// planned is one entry of a shard's crash or recovery schedule: the sweep it
// fires on and the node's index in the shard.
type planned struct {
	at  int
	idx int32
}

// nodeLoc locates a hosted node: its owning shard and its index in that
// shard's dense node slice. {-1, -1} marks a node hosted elsewhere.
type nodeLoc struct {
	shard int32
	idx   int32
}

// shard is one event-loop worker.
type shard struct {
	rt    *Runtime
	id    int
	nodes []node // dense, contiguous slice of the runtime's hosted nodes

	// Owned by the shard goroutine (and sim.Proc coroutines, which run in
	// lockstep with it).
	cal calendar  // delayed deliveries to this shard's nodes; its now is the shard's protocol tick
	due []Message // zero-delay same-shard deliveries joining the current drain
	out [][]post  // out[d]: posts for shard d, handed over once per pass

	sweeps     int       // sweeps run so far: every hosted node's wall clock
	crashes    []planned // crash plans not yet fired, by sweep
	recoveries []planned // recovery plans not yet fired, by sweep

	mu      sync.Mutex
	q       []post    // mailbox, guarded by mu
	qSpare  []post    // drained buffer kept for reuse
	netQ    int       // network arrivals in q: the part post bounds
	space   sync.Cond // on mu: drainMail or stop made room for a waiting post
	stopped bool
	// fromQ[d] is the number of shard d's handed-over posts in q: handover
	// adds to it and drainMail zeroes it, both under mu; shard d reads it
	// without the lock to decide whether to hold back (backpressured).
	fromQ []atomic.Int64

	notify chan struct{} // cap 1: wakes the loop for a fresh mailbox post
}

// newShard builds shard id of nShards hosting nNodes nodes.
func newShard(rt *Runtime, id, nShards, nNodes int) *shard {
	s := &shard{
		rt:     rt,
		id:     id,
		nodes:  make([]node, nNodes),
		out:    make([][]post, nShards),
		fromQ:  make([]atomic.Int64, nShards),
		notify: make(chan struct{}, 1),
	}
	s.space.L = &s.mu
	return s
}

// post enqueues a network arrival for a node this shard owns. While the
// mailbox already holds one sweep's worth of network arrivals (the shard's
// hosted count, the bound fromQ applies to in-process posts) it waits for
// the next drain; a shard that stops meanwhile, or had stopped, counts the
// message as abandoned. Nothing is shed, and the sink never refuses the
// message back to the transport.
//
// In a running cluster only a stream transport's read loop reaches post, so
// a full mailbox stops that reader: the socket buffer fills, the sender's writer blocks, its queue
// grows and its runtime holds initiation (see congestion). The flow control
// is TCP's own. The wait cannot deadlock: a shard never waits on the network
// (Send never blocks, and in-process posts go through handover), every pass
// of its loop drains the mailbox and wakes the waiters, and stop releases
// every waiter.
func (s *shard) post(msg Message, delayTicks int64) {
	s.mu.Lock()
	for !s.stopped && s.netQ >= len(s.nodes) {
		s.space.Wait()
	}
	if s.stopped {
		s.mu.Unlock()
		s.rt.abandoned.Add(1)
		return
	}
	s.q = append(s.q, post{msg: msg, delayTicks: delayTicks})
	s.netQ++
	s.mu.Unlock()
	s.wake()
}

// wake nudges the shard loop to drain its mailbox.
func (s *shard) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// send routes a message one of this shard's nodes sent to a node of shard
// dst. It runs on this shard's goroutine, so it touches only this shard's
// own state.
func (s *shard) send(dst int32, msg Message, delayTicks int64) {
	switch {
	case int(dst) != s.id:
		s.out[dst] = append(s.out[dst], post{msg: msg, delayTicks: delayTicks})
	case delayTicks <= 0:
		s.due = append(s.due, msg)
	default:
		s.cal.arm(delayTicks, msg)
	}
}

// handover moves every outbox into its destination's mailbox, one locked
// append per destination. A destination that has stopped counts the batch
// as abandoned.
func (s *shard) handover() {
	for d, batch := range s.out {
		if len(batch) == 0 {
			continue
		}
		dst := s.rt.shards[d]
		dst.mu.Lock()
		if dst.stopped {
			dst.mu.Unlock()
			s.rt.abandoned.Add(int64(len(batch)))
		} else {
			dst.q = append(dst.q, batch...)
			dst.fromQ[s.id].Add(int64(len(batch)))
			dst.mu.Unlock()
			dst.wake()
		}
		s.out[d] = batch[:0]
	}
}

// backpressured reports whether some destination still holds more than one
// sweep's worth (this shard's hosted count) of its posts undrained.
func (s *shard) backpressured() bool {
	limit := int64(len(s.nodes))
	for _, dst := range s.rt.shards {
		if dst.fromQ[s.id].Load() > limit {
			return true
		}
	}
	return false
}

// stop marks the shard stopped and releases every post waiting for room;
// those, and whatever is still queued or armed here, will never be
// delivered: they count as abandoned, as a transport counts the deliveries
// it abandons at Close.
func (s *shard) stop() {
	s.mu.Lock()
	s.stopped = true
	s.space.Broadcast()
	s.rt.abandoned.Add(int64(len(s.q) + s.cal.armed + len(s.due)))
	s.mu.Unlock()
}

// run is the shard's event loop: start every handler, then alternate between
// protocol ticks (calendar deliveries + a node sweep) and mailbox drains until
// the runtime stops.
func (s *shard) run() {
	defer s.rt.wg.Done()
	defer func() {
		if s.rt.leaving.Load() {
			// An interrupted run promises that every live node announces its
			// leave; a shard the scheduler starved through the whole grace
			// window makes good on it now.
			s.tick()
		}
		s.handover() // whatever Start sent, if the runtime stopped before a pass
		s.stop()
		// Unwind coroutine handlers (sim.Proc) so a shut-down runtime never
		// leaks a parked proc goroutine.
		for i := range s.nodes {
			s.nodes[i].stopHandler()
		}
	}()

	for i := range s.nodes {
		n := &s.nodes[i]
		n.h.Start(n.ctx)
		n.updateDone()
	}

	tick := s.rt.opts.Tick
	timer := time.NewTimer(tick)
	defer timer.Stop()
	for {
		wait := time.Duration(s.cal.now+1)*tick - time.Since(s.rt.epoch)
		if wait <= 0 {
			s.tick()
			// Re-check stop between back-to-back catch-up ticks.
			select {
			case <-s.rt.stopCh:
				return
			default:
			}
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-s.rt.stopCh:
			return
		case <-s.notify:
			s.drainMail()
			s.handover()
		case <-timer.C:
			s.tick()
		}
	}
}

// tick advances the shard to the current wall tick: every due calendar
// delivery fires (in deadline order — a long scheduler stall is a jump, not a
// spin), the mailbox drains, the nodes take one sweep, and the outboxes are
// handed over. A stalled shard runs one sweep per loop pass, mirroring how a
// per-node ticker dropped missed ticks instead of replaying them.
func (s *shard) tick() {
	target := int64(time.Since(s.rt.epoch) / s.rt.opts.Tick)
	if target <= s.cal.now {
		target = s.cal.now + 1
	}
	for {
		slot, ok := s.cal.next(target)
		if !ok {
			break
		}
		for _, msg := range slot {
			s.deliver(msg)
		}
		s.drainDue()
		s.cal.recycle(slot)
	}
	s.drainMail()
	s.sweep()
	s.drainDue()
	s.handover()
}

// sweep advances the shard's wall clock one tick. The crash plans due fire
// first and the recovery plans due last, so a node is down from its crash
// sweep through its recovery sweep inclusive and takes no round on either.
// In between, the run-wide state is read once: on a working sweep every
// node takes onTick; on an idle one — held by backpressure (a destination
// shard behind, or a congested transport), quiesced, leaving, or past the
// run's budget of MaxTicks sweeps — no node takes a round, and the nodes
// are visited only to tick their failure detectors and, once, to announce
// their leave.
func (s *shard) sweep() {
	s.sweeps++
	for len(s.crashes) > 0 && s.crashes[0].at <= s.sweeps {
		s.nodes[s.crashes[0].idx].halt()
		s.crashes = s.crashes[1:]
	}
	rt := s.rt
	if s.sweeps == rt.opts.MaxTicks+1 {
		// The budget counts sweeps, which go on while held, so a run held
		// forever still ends.
		for i := range s.nodes {
			s.nodes[i].setExhausted(true)
		}
	}
	leaving := rt.leaving.Load()
	member := rt.opts.Membership != nil
	switch {
	case !leaving && s.sweeps <= rt.opts.MaxTicks && !rt.quiesced.Load() &&
		!s.backpressured() && (rt.cong == nil || !rt.cong.congested()):
		for i := range s.nodes {
			s.nodes[i].onTick(member)
		}
	case member:
		for i := range s.nodes {
			n := &s.nodes[i]
			if n.halted {
				continue
			}
			if leaving && !n.left {
				// Graceful stop: announce the departure once — peers mark
				// the node dead at its current incarnation instead of
				// burning a suspicion timeout — then keep answering.
				n.left = true
				n.sendMember(n.mem.Load().Leave(s.sweeps))
			}
			n.memberTick()
		}
	}
	for len(s.recoveries) > 0 && s.recoveries[0].at <= s.sweeps {
		s.nodes[s.recoveries[0].idx].rejoin()
		s.recoveries = s.recoveries[1:]
	}
}

// drainMail delivers the zero-delay same-shard posts, then takes the mailbox
// once — swapped out under the lock, processed outside: due posts deliver
// immediately (a zero-delay response reaches its initiator within the same
// tick, as the timer transports guaranteed), delayed posts arm on the
// calendar. What arrives meanwhile waits for the next drain, so producers
// that keep pace with the drain cannot keep the shard from its calendar and
// keep their backpressure in step with it. Taking the mailbox wakes the
// posts waiting for room.
func (s *shard) drainMail() {
	s.drainDue()
	s.mu.Lock()
	q := s.q
	s.q, s.netQ = s.qSpare[:0], 0
	if len(q) > 0 {
		for i := range s.fromQ {
			s.fromQ[i].Store(0)
		}
		s.space.Broadcast()
	}
	s.mu.Unlock()
	for _, p := range q {
		if p.delayTicks <= 0 {
			s.deliver(p.msg)
		} else {
			s.cal.arm(p.delayTicks, p.msg)
		}
	}
	s.qSpare = q[:0]
	s.drainDue()
}

// drainDue delivers zero-delay same-shard posts until none are left; the
// deliveries may append more.
func (s *shard) drainDue() {
	for i := 0; i < len(s.due); i++ {
		s.deliver(s.due[i])
	}
	s.due = s.due[:0]
}

// deliver hands one due message to its destination node. A halted (crashed)
// node drops arrivals unanswered, exactly as its goroutine predecessor did.
func (s *shard) deliver(msg Message) {
	loc := s.rt.loc[msg.To]
	if loc.idx < 0 {
		return // not ours: a post raced a topology error; drop
	}
	n := &s.nodes[loc.idx]
	if n.halted {
		return
	}
	n.handle(msg)
}

// maxDelayTicks is the calendar's horizon, far past any latency a run
// waits out: the sink counts a longer delay as abandoned instead of arming
// it, so no delay, one forged on the wire included, grows a ring past it.
const maxDelayTicks = 1 << 16

// sink is the DeliverySink the runtime installs on SinkTransports. It
// converts the wall-clock delay to whole protocol ticks (rounded up, matching
// the transports' quantization of latency to tick multiples) and routes by
// sender: a sender hosted here means the call runs on the sender's shard
// goroutine (see DeliverySink), so the sending shard routes it on its own
// state; any other sender is a network arrival for the owner's mailbox. A
// sender or receiver outside the graph names no node: the sink refuses it.
func (rt *Runtime) sink(msg Message, delay time.Duration) bool {
	if uint(msg.To) >= uint(len(rt.loc)) || uint(msg.From) >= uint(len(rt.loc)) {
		return false
	}
	to := rt.loc[msg.To].shard
	if to < 0 {
		return false
	}
	var ticks int64
	if delay > 0 {
		ticks = int64((delay + rt.opts.Tick - 1) / rt.opts.Tick)
	}
	if ticks > maxDelayTicks {
		rt.abandoned.Add(1)
		return true
	}
	if from := rt.loc[msg.From].shard; from >= 0 {
		rt.shards[from].send(to, msg, ticks)
		return true
	}
	rt.shards[to].post(msg, ticks)
	return true
}

// calendar is the shard's schedule of delayed deliveries: a ring of per-tick
// message slots covering the ticks (now, now+len(slots)), one slot longer
// than the longest delay armed so far and grown when a longer one arrives.
// Arming appends to a slot; advancing detaches the due slots in tick order
// and takes their arrays back once delivered, so each slot's array is reused
// tick after tick and an armed message costs one flat slot entry — no
// per-message node, pointer or allocation. It is owned by one goroutine.
type calendar struct {
	now   int64
	slots [][]Message
	armed int
}

// arm schedules msg delay ticks from now (at least one).
func (c *calendar) arm(delay int64, msg Message) {
	delay = max(delay, 1)
	if delay >= int64(len(c.slots)) {
		c.grow(int(delay) + 1)
	}
	i := (c.now + delay) % int64(len(c.slots))
	c.slots[i] = append(c.slots[i], msg)
	c.armed++
}

// grow re-spreads the ring over size slots; every armed tick keeps its
// messages (and every slot its array), only its index changes.
func (c *calendar) grow(size int) {
	old, n := c.slots, int64(len(c.slots))
	c.slots = make([][]Message, size)
	for t := c.now + 1; t <= c.now+n; t++ {
		c.slots[t%int64(size)] = old[t%n]
	}
}

// next moves the calendar to the earliest tick at or before target that has
// messages due, detaches that tick's slot and returns it (FIFO within the
// tick); with none left it moves to target and reports false. While the
// caller delivers a slot, now is the slot's tick: what the deliveries arm is
// due after it, less than a ring ahead, in a slot the walk has not reached
// yet, and comes out of a later next of the same pass when due at or before
// target.
func (c *calendar) next(target int64) ([]Message, bool) {
	for c.armed > 0 && c.now < target {
		c.now++
		i := c.now % int64(len(c.slots))
		if slot := c.slots[i]; len(slot) > 0 {
			c.slots[i] = nil
			c.armed -= len(slot)
			return slot, true
		}
	}
	c.now = max(c.now, target)
	return nil, false
}

// recycle hands a delivered slot's array back to the slot it was detached
// from. That slot is still empty: nothing arms a whole ring ahead, and a ring
// grown meanwhile left it unfilled.
func (c *calendar) recycle(slot []Message) {
	c.slots[c.now%int64(len(c.slots))] = slot[:0]
}
