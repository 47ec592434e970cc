package live

import (
	"sync"
	"time"

	"gossip/internal/graph"
)

// This file is the sharded event loop that multiplexes every locally hosted
// node onto a fixed set of workers. One shard owns a contiguous range of the
// runtime's hosted nodes as a dense slice, a hierarchical timer wheel holding
// that range's delayed deliveries (ticks = protocol ticks), and an MPSC
// mailbox through which transports and other shards post messages. The shard
// goroutine is the only thing that touches its nodes' handler state, so the
// sim.Handler single-goroutine contract holds exactly as it did when each
// node had a goroutine of its own — but a runtime hosting 100k nodes now
// costs O(shards) goroutines and zero per-node tickers.

// post is one mailbox entry: a message and its remaining delivery delay in
// protocol ticks (<= 0 delivers on the next drain).
type post struct {
	msg        Message
	delayTicks int64
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

	wheel *wheel[Message] // delayed deliveries; one tick = one protocol tick
	now   int64           // protocol ticks elapsed, advanced toward wall time
	fired []Message       // scratch for wheel.advance

	mu      sync.Mutex
	q       []post // mailbox, guarded by mu
	qSpare  []post // drained buffer kept for reuse
	stopped bool

	notify chan struct{} // cap 1: wakes the loop for a fresh mailbox post
}

// DefaultMailboxCap bounds a shard's mailbox. Without it a degree hotspot
// (say a star center) lets producer shards outrun the owning shard and the
// queue — and the process — grows without bound. When full, gossip posts are
// shed and counted in the overload ledger; membership traffic is always
// admitted (hard backpressure, matching the transports' inbox policy).
// Options.MailboxCap overrides it per run (negative = unbounded): a shard
// hosting 100k+ nodes sees flood frontiers far wider than this default, and
// shed local posts — which have no retransmit layer under them — stall a
// repair-free protocol for good.
const DefaultMailboxCap = 1 << 16

// post enqueues msg for delivery to a node this shard owns, reporting false
// once the shard has stopped (the caller falls back to its legacy path; the
// message is lost exactly as a post-shutdown inbox delivery was).
func (s *shard) post(msg Message, delayTicks int64) bool {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	if mc := s.rt.mailCap; mc > 0 && len(s.q) >= mc && msg.Kind != MsgMember {
		s.mu.Unlock()
		s.rt.mailShed.Add(1)
		return true // handled: shed, not eligible for the legacy fallback
	}
	s.q = append(s.q, post{msg: msg, delayTicks: delayTicks})
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return true
}

// run is the shard's event loop: start every handler, then alternate between
// protocol ticks (wheel deliveries + a node sweep) and mailbox drains until
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
		s.mu.Lock()
		s.stopped = true
		s.mu.Unlock()
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
		wait := time.Duration(s.now+1)*tick - time.Since(s.rt.epoch)
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
		case <-timer.C:
			s.tick()
		}
	}
}

// tick advances the shard to the current wall tick: every due wheel delivery
// fires (in deadline order — a long scheduler stall is a jump, not a spin),
// the mailbox drains, and each owned node takes one onTick. A stalled shard
// runs one node sweep per loop pass, mirroring how a per-node ticker dropped
// missed ticks instead of replaying them.
func (s *shard) tick() {
	target := int64(time.Since(s.rt.epoch) / s.rt.opts.Tick)
	if target <= s.now {
		target = s.now + 1
	}
	s.fired = s.wheel.advance(target, s.fired[:0])
	s.now = target
	for _, msg := range s.fired {
		s.deliver(msg)
	}
	s.drainMail()
	for i := range s.nodes {
		s.nodes[i].onTick()
	}
}

// drainMail swaps out the mailbox under the lock and processes it outside:
// due posts deliver immediately (a zero-delay response reaches its initiator
// within the same tick, as the timer transports guaranteed), delayed posts
// arm on the wheel.
func (s *shard) drainMail() {
	for {
		s.mu.Lock()
		if len(s.q) == 0 {
			s.mu.Unlock()
			return
		}
		q := s.q
		s.q = s.qSpare[:0]
		s.mu.Unlock()
		for _, p := range q {
			if p.delayTicks <= 0 {
				s.deliver(p.msg)
			} else {
				s.wheel.arm(s.now+p.delayTicks, p.msg)
			}
		}
		s.qSpare = q[:0]
	}
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

// sink is the DeliverySink the runtime installs on SinkTransports: route the
// message to its owning shard, converting the wall-clock delay to whole
// protocol ticks (rounded up, matching the transports' quantization of
// latency to tick multiples).
func (rt *Runtime) sink(msg Message, delay time.Duration) bool {
	if msg.To < 0 || int(msg.To) >= len(rt.loc) {
		return false
	}
	loc := rt.loc[msg.To]
	if loc.shard < 0 {
		return false
	}
	var ticks int64
	if delay > 0 {
		ticks = int64((delay + rt.opts.Tick - 1) / rt.opts.Tick)
	}
	return rt.shards[loc.shard].post(msg, ticks)
}

// forward is the fallback for transports that don't implement SinkTransport:
// one goroutine per hosted node pumps its inbox into the owning shard. The
// transport has already applied the latency delay by the time a message
// surfaces in the inbox, so posts carry no extra ticks.
func (rt *Runtime) forward(u graph.NodeID, inbox <-chan Message) {
	defer rt.wg.Done()
	loc := rt.loc[u]
	sh := rt.shards[loc.shard]
	for {
		select {
		case <-rt.stopCh:
			return
		case msg := <-inbox:
			sh.post(msg, 0)
		}
	}
}
