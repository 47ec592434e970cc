package live

import (
	"math/bits"
	"sync"
	"time"
)

// This file is the hierarchical timing wheel (Varghese & Lauck) that replaces
// every per-message time.Timer/time.AfterFunc and per-node ticker in the live
// runtime. Two layers:
//
//   - wheel[T]: the caller-synchronized core. Time is an abstract int64 tick
//     counter; arm/cancel/advance are O(1) amortized. timerWheel wraps one
//     for transports (ticks = wall-clock granules, mutex). The shard loop
//     needs no cancel and keeps a flat calendar instead (shard.go).
//   - timerWheel: the concurrent wall-clock wrapper ChanTransport uses for
//     its latency-delay deliveries. A single lazily-started driver goroutine
//     advances the wheel, replacing one goroutine per armed time.Timer with
//     one per transport.
//
// Layout: wheelLevels levels of wheelSlots slots. Level L slot s holds
// entries with (when >> (L*wheelBits)) & wheelMask == s; an entry is placed
// at the lowest level whose span covers its remaining delta, so level 0 holds
// entries due within 64 ticks, level 1 within 64², and so on. Entries beyond
// the top level's span sit on an overflow list rescanned once per top-level
// slot boundary. When the low-order wheels wrap, the matching upper slot
// cascades its entries down; by the time a delta fits level 0 the entry sits
// in slot when&wheelMask and fires exactly at tick `when`, so firing order is
// monotone in `when`.

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	// wheelSpan is the horizon covered by the leveled slots; deltas at or
	// beyond it overflow. At the timerWheel's default 100µs granule this is
	// ~28 minutes — an overflow rescan is a once-per-26s event for a
	// pathological timer, not a hot path.
	wheelSpan = 1 << (wheelBits * wheelLevels)
	// wheelRescanShift aligns overflow rescans with top-level cascades.
	wheelRescanShift = wheelBits * (wheelLevels - 1)
)

// wheelEntry is one armed timer. Entries live on intrusive circular
// doubly-linked slot lists (or the overflow list) and are pooled: gen guards
// a recycled entry against stale cancel handles (ABA).
type wheelEntry[T any] struct {
	prev, next *wheelEntry[T]
	when       int64
	gen        uint64
	val        T
	level      int8 // 0..wheelLevels-1, wheelOverflow, or wheelFree
	slot       int8
}

const (
	wheelOverflow int8 = -1
	wheelFree     int8 = -2
)

// wheel is the caller-synchronized core. The zero value is not ready; use
// newWheel. All methods must be externally serialized.
type wheel[T any] struct {
	now      int64
	armed    int
	occ      [wheelLevels]uint64 // per-level nonempty-slot bitmap
	slots    [wheelLevels][wheelSlots]wheelEntry[T]
	overflow wheelEntry[T] // sentinel of the overflow list
	overN    int
	free     *wheelEntry[T] // pool, singly linked through next
}

func newWheel[T any]() *wheel[T] {
	w := &wheel[T]{}
	for l := range w.slots {
		for s := range w.slots[l] {
			sent := &w.slots[l][s]
			sent.prev, sent.next = sent, sent
		}
	}
	w.overflow.prev, w.overflow.next = &w.overflow, &w.overflow
	return w
}

// alloc pops a pooled entry or makes a fresh one.
func (w *wheel[T]) alloc() *wheelEntry[T] {
	if e := w.free; e != nil {
		w.free = e.next
		e.next = nil
		return e
	}
	return &wheelEntry[T]{}
}

// release unlinks bookkeeping and returns the entry to the pool, bumping its
// generation so stale handles can no longer cancel it.
func (w *wheel[T]) release(e *wheelEntry[T]) {
	var zero T
	e.val = zero
	e.gen++
	e.level = wheelFree
	e.prev = nil
	e.next = w.free
	w.free = e
}

// sentinel returns the list head owning (level, slot).
func (w *wheel[T]) sentinel(level, slot int8) *wheelEntry[T] {
	if level == wheelOverflow {
		return &w.overflow
	}
	return &w.slots[level][slot]
}

// unlink removes e from its slot list, maintaining the occupancy bitmap.
func (w *wheel[T]) unlink(e *wheelEntry[T]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	if e.level == wheelOverflow {
		w.overN--
	} else {
		sent := &w.slots[e.level][e.slot]
		if sent.next == sent {
			w.occ[e.level] &^= 1 << uint(e.slot)
		}
	}
}

// place links e into the slot owning its deadline, given the wheel's current
// time. Callers guarantee e.when >= w.now; e.when == w.now only occurs while
// cascading at a boundary, where the level-0 slot fires later the same tick.
func (w *wheel[T]) place(e *wheelEntry[T]) {
	delta := e.when - w.now
	if delta >= wheelSpan {
		e.level, e.slot = wheelOverflow, 0
		w.overN++
	} else {
		level := int8(0)
		for delta >= 1<<((level+1)*wheelBits) {
			level++
		}
		e.level = level
		e.slot = int8((e.when >> uint(level*wheelBits)) & wheelMask)
		w.occ[level] |= 1 << uint(e.slot)
	}
	sent := w.sentinel(e.level, e.slot)
	e.prev = sent.prev
	e.next = sent
	sent.prev.next = e
	sent.prev = e
}

// arm schedules val at absolute tick `when` (clamped to now+1 if not in the
// future) and returns a cancel handle: the entry plus its generation.
func (w *wheel[T]) arm(when int64, val T) (*wheelEntry[T], uint64) {
	if when <= w.now {
		when = w.now + 1
	}
	e := w.alloc()
	e.when = when
	e.val = val
	w.place(e)
	w.armed++
	return e, e.gen
}

// cancel disarms the entry behind a handle. It reports false when the entry
// already fired, was cancelled, or was recycled for a newer timer.
func (w *wheel[T]) cancel(e *wheelEntry[T], gen uint64) bool {
	if e == nil || e.gen != gen || e.level == wheelFree {
		return false
	}
	w.unlink(e)
	w.release(e)
	w.armed--
	return true
}

// len returns the number of armed entries.
func (w *wheel[T]) len() int { return w.armed }

// reset disarms everything and returns how many entries it abandoned; the
// wheel stays usable (Close accounting).
func (w *wheel[T]) reset() int64 {
	n := int64(w.armed)
	for l := int8(0); l < wheelLevels; l++ {
		for s := int8(0); s < wheelSlots; s++ {
			sent := &w.slots[l][s]
			for sent.next != sent {
				e := sent.next
				w.unlink(e)
				w.release(e)
			}
		}
	}
	for w.overflow.next != &w.overflow {
		e := w.overflow.next
		w.unlink(e)
		w.release(e)
	}
	w.armed = 0
	return n
}

// nextDue returns the earliest tick > now at which the wheel has work — a
// level-0 deadline, an upper-level cascade, or an overflow rescan — capped at
// `cap`. Slot occupancy makes this exact: all entries in one upper slot share
// an epoch, so each occupied slot contributes exactly one boundary.
func (w *wheel[T]) nextDue(cap int64) int64 {
	best := cap
	if w.occ[0] != 0 {
		cur := w.now & wheelMask
		for b := w.occ[0]; b != 0; b &= b - 1 {
			d := (int64(bits.TrailingZeros64(b)) - cur) & wheelMask
			if d == 0 {
				d = wheelSlots
			}
			if t := w.now + d; t < best {
				best = t
			}
		}
	}
	for l := 1; l < wheelLevels; l++ {
		if w.occ[l] == 0 {
			continue
		}
		shift := uint(l * wheelBits)
		epoch := w.now >> shift
		for b := w.occ[l]; b != 0; b &= b - 1 {
			d := (int64(bits.TrailingZeros64(b)) - epoch) & wheelMask
			if d == 0 {
				d = wheelSlots
			}
			if t := (epoch + d) << shift; t < best {
				best = t
			}
		}
	}
	if w.overN > 0 {
		if t := (w.now>>wheelRescanShift + 1) << wheelRescanShift; t < best {
			best = t
		}
	}
	return best
}

// advance moves the wheel to `target`, appending every expired entry's value
// to out in firing order (monotone in `when`; FIFO within a tick). Large
// jumps skip straight between due ticks via nextDue, so an idle wheel costs
// nothing per elapsed tick.
func (w *wheel[T]) advance(target int64, out []T) []T {
	for w.now < target {
		w.now = w.nextDue(target) // ≤ target by construction
		out = w.tick(out)
	}
	return out
}

// tick processes the wheel's current time: rescan overflow and cascade upper
// slots at their boundaries (an entry can fall several levels in one tick;
// order across levels is free, since a cascading entry never lands in a slot
// this tick still has to visit), then fire the level-0 slot.
func (w *wheel[T]) tick(out []T) []T {
	if w.overN > 0 && w.now&(1<<wheelRescanShift-1) == 0 {
		w.rescanOverflow()
	}
	for l := 1; l < wheelLevels; l++ {
		shift := uint(l * wheelBits)
		if w.now&(1<<shift-1) != 0 {
			break // not a boundary for this level, nor any higher one
		}
		slot := int8((w.now >> shift) & wheelMask)
		if w.occ[l]&(1<<uint(slot)) != 0 {
			w.cascade(int8(l), slot)
		}
	}
	slot := int8(w.now & wheelMask)
	if w.occ[0]&(1<<uint(slot)) == 0 {
		return out
	}
	// Detach the whole slot, then walk the chain: all entries are due this
	// tick (level-0 slots hold one lap only), and detaching keeps a
	// hypothetical re-place from revisiting the list.
	sent := &w.slots[0][slot]
	head := sent.next
	sent.prev.next = nil
	sent.prev, sent.next = sent, sent
	w.occ[0] &^= 1 << uint(slot)
	for e := head; e != nil; {
		next := e.next
		if e.when > w.now {
			w.place(e) // unreachable while the lap invariant holds
		} else {
			out = append(out, e.val)
			w.release(e)
			w.armed--
		}
		e = next
	}
	return out
}

// cascade detaches one upper slot and re-places its entries a level (or
// more) down; their epoch starts at the current tick, so none move back up.
func (w *wheel[T]) cascade(level, slot int8) {
	sent := &w.slots[level][slot]
	head := sent.next
	sent.prev.next = nil
	sent.prev, sent.next = sent, sent
	w.occ[level] &^= 1 << uint(slot)
	for e := head; e != nil; {
		next := e.next
		w.place(e)
		e = next
	}
}

// rescanOverflow pulls every overflow entry whose delta now fits the leveled
// slots. Runs once per top-level slot boundary while the list is nonempty.
func (w *wheel[T]) rescanOverflow() {
	for e := w.overflow.next; e != &w.overflow; {
		next := e.next
		if e.when-w.now < wheelSpan {
			w.unlink(e)
			w.place(e)
		}
		e = next
	}
}

// defaultWheelGranule is the timerWheel's tick: delivery delays are
// quantized up to it. 100µs is well under the runtime's default 1ms protocol
// tick.
const defaultWheelGranule = 100 * time.Microsecond

// timerWheel is the concurrent wall-clock face of the wheel, the transports'
// replacement for per-message time.AfterFunc: schedule(delay, fn) arms fn on
// a shared wheel driven by one goroutine. The driver starts lazily on the
// first schedule and exits promptly at close, so an idle or closed transport
// holds no goroutine (the timer-hygiene tests rely on this).
type timerWheel struct {
	granule time.Duration

	mu        sync.Mutex
	w         *wheel[func()]
	start     time.Time
	running   bool
	closed    bool
	inflight  int64         // callbacks handed to a runner goroutine but not yet past the close check
	executing int64         // callbacks past the close check and currently executing
	wake      chan struct{} // cap 1: nudges the driver after an earlier arm
}

// newTimerWheel builds a wheel with the given granule (<= 0 means
// defaultWheelGranule).
func newTimerWheel(granule time.Duration) *timerWheel {
	if granule <= 0 {
		granule = defaultWheelGranule
	}
	return &timerWheel{
		granule: granule,
		w:       newWheel[func()](),
		wake:    make(chan struct{}, 1),
	}
}

// wheelTimer is one scheduled callback's cancel handle. The nil handle (from
// a zero-delay or post-close schedule) is valid and never stoppable.
type wheelTimer struct {
	tw  *timerWheel
	e   *wheelEntry[func()]
	gen uint64
}

// Stop disarms the callback, reporting whether it was still armed. Stopping
// nil, fired, cancelled, or recycled handles is a safe no-op.
func (t *wheelTimer) Stop() bool {
	if t == nil || t.tw == nil {
		return false
	}
	t.tw.mu.Lock()
	ok := t.tw.w.cancel(t.e, t.gen)
	t.tw.mu.Unlock()
	return ok
}

// schedule arms fn to run after delay (rounded up to the granule). It
// returns nil when the wheel is closed — the callback is abandoned, never
// armed. A non-positive delay runs fn on its own goroutine immediately,
// matching time.AfterFunc(0) latency without a granule's quantization; until
// the callback actually starts it counts toward len and a close abandons it
// (the accounting Drain relies on: a not-yet-run delivery is a counted
// loss, not a silent one).
func (tw *timerWheel) schedule(delay time.Duration, fn func()) *wheelTimer {
	if delay <= 0 {
		tw.mu.Lock()
		if tw.closed {
			tw.mu.Unlock()
			return nil
		}
		tw.inflight++
		tw.mu.Unlock()
		go func() {
			tw.mu.Lock()
			if tw.closed {
				// close counted us as abandoned (and zeroed the in-flight
				// count); don't run.
				tw.mu.Unlock()
				return
			}
			tw.inflight--
			tw.executing++
			tw.mu.Unlock()
			fn()
			tw.mu.Lock()
			tw.executing--
			tw.mu.Unlock()
		}()
		return &wheelTimer{}
	}
	ticks := int64((delay + tw.granule - 1) / tw.granule)
	tw.mu.Lock()
	if tw.closed {
		tw.mu.Unlock()
		return nil
	}
	if !tw.running {
		tw.running = true
		tw.start = time.Now()
		go tw.drive()
	}
	now := int64(time.Since(tw.start) / tw.granule)
	if now > tw.w.now {
		// Don't advance here (firing needs the lock dropped); just keep the
		// deadline honest relative to wall time. The driver catches up.
		ticks += now - tw.w.now
	}
	e, gen := tw.w.arm(tw.w.now+ticks, fn)
	tw.mu.Unlock()
	select {
	case tw.wake <- struct{}{}:
	default:
	}
	return &wheelTimer{tw: tw, e: e, gen: gen}
}

// len returns the number of armed callbacks, including expired or zero-delay
// callbacks whose runner goroutine has not finished executing them yet — so a
// drain polling len()==0 never races a delivery that is still in flight.
func (tw *timerWheel) len() int {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.w.len() + int(tw.inflight) + int(tw.executing)
}

// close abandons every armed callback and returns how many — including
// callbacks the driver already collected but has not yet run (their runner
// re-checks closed and skips them, so the count stays exact). Callbacks
// already executing are not abandoned; they run to completion.
func (tw *timerWheel) close() int64 {
	tw.mu.Lock()
	if tw.closed {
		tw.mu.Unlock()
		return 0
	}
	tw.closed = true
	n := tw.w.reset() + tw.inflight
	tw.inflight = 0
	tw.mu.Unlock()
	select {
	case tw.wake <- struct{}{}:
	default:
	}
	return n
}

// drive is the wheel's single timer goroutine: advance to wall time, run
// what expired, sleep until the next deadline or an earlier arm.
func (tw *timerWheel) drive() {
	sleep := time.NewTimer(time.Hour)
	defer sleep.Stop()
	var batch []func()
	for {
		tw.mu.Lock()
		if tw.closed {
			tw.mu.Unlock()
			return
		}
		now := int64(time.Since(tw.start) / tw.granule)
		batch = tw.w.advance(now, batch[:0])
		tw.inflight += int64(len(batch)) // still counted by len() until run
		due := tw.w.nextDue(now + 1<<wheelRescanShift)
		tw.mu.Unlock()

		if len(batch) > 0 {
			// One goroutine per expired batch, never under the lock: a
			// blocking callback (an inbox handover, a retry dial) must not
			// stall the wheel or later batches, and callbacks are free to
			// re-enter schedule/Stop. Each callback leaves the in-flight
			// count only as it runs, and a close abandons the rest — so a
			// drain polling len() never races a collected-but-unrun delivery.
			fns := batch
			batch = nil
			go func() {
				for _, fn := range fns {
					tw.mu.Lock()
					if tw.closed {
						// close counted us (and the rest of the batch) as
						// abandoned and zeroed the in-flight count; stop.
						tw.mu.Unlock()
						return
					}
					tw.inflight--
					tw.executing++
					tw.mu.Unlock()
					fn()
					tw.mu.Lock()
					tw.executing--
					tw.mu.Unlock()
				}
			}()
		}

		wait := time.Duration(due)*tw.granule - time.Since(tw.start)
		if wait < 0 {
			continue
		}
		if !sleep.Stop() {
			select {
			case <-sleep.C:
			default:
			}
		}
		sleep.Reset(wait)
		select {
		case <-tw.wake:
		case <-sleep.C:
		}
	}
}
