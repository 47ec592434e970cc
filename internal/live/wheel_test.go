package live

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWheelFiresAtExactTick arms one entry per interesting delta — slot
// edges, level boundaries, cascade depths, overflow — and checks each fires
// at exactly its deadline, never early, never late.
func TestWheelFiresAtExactTick(t *testing.T) {
	deltas := []int64{
		1, 2, 63, 64, 65, 127, 128,
		wheelSlots*wheelSlots - 1, wheelSlots * wheelSlots, wheelSlots*wheelSlots + 1,
		1 << wheelRescanShift, 1<<wheelRescanShift + 7,
		wheelSpan - 1, wheelSpan, wheelSpan + 1, 3*wheelSpan + 11,
	}
	for _, start := range []int64{0, 1, 63, 64, 4095, 1<<wheelRescanShift - 1} {
		w := newWheel[int64]()
		var fired []int64
		fired = w.advance(start, fired)
		if len(fired) != 0 {
			t.Fatalf("start=%d: empty wheel fired %v", start, fired)
		}
		want := make(map[int64]bool)
		for _, d := range deltas {
			when := start + d
			w.arm(when, when)
			want[when] = true
		}
		if w.len() != len(deltas) {
			t.Fatalf("start=%d: len = %d, want %d", start, w.len(), len(deltas))
		}
		// Advance one past each deadline and verify the entry fires on the
		// deadline tick itself.
		var whens []int64
		for when := range want {
			whens = append(whens, when)
		}
		sort.Slice(whens, func(i, j int) bool { return whens[i] < whens[j] })
		for _, when := range whens {
			fired = w.advance(when-1, fired[:0])
			for _, got := range fired {
				if got >= when {
					t.Fatalf("start=%d: entry %d fired early at tick %d", start, got, w.now)
				}
			}
			fired = w.advance(when, fired[:0])
			seen := false
			for _, got := range fired {
				if got == when {
					seen = true
				}
			}
			if !seen {
				t.Fatalf("start=%d: entry %d did not fire at its tick (got %v)", start, when, fired)
			}
		}
		if w.len() != 0 {
			t.Fatalf("start=%d: %d entries left after all deadlines", start, w.len())
		}
	}
}

// TestWheelAgainstReference drives the wheel and a naive sorted-list model
// with the same randomized arm/cancel/advance schedule and requires identical
// fire sequences: every deadline exact, firing order monotone in deadline and
// FIFO within a tick, across cascades, overflow rescans, and jumps.
func TestWheelAgainstReference(t *testing.T) {
	type ref struct {
		when int64
		id   int64
	}
	rng := rand.New(rand.NewSource(42))
	w := newWheel[int64]()
	var model []ref
	handles := make(map[int64]*wheelEntry[int64])
	gens := make(map[int64]uint64)
	var nextID int64
	var fired []int64

	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // arm
			var delta int64
			switch rng.Intn(4) {
			case 0:
				delta = rng.Int63n(wheelSlots) // level 0 (0 clamps to 1)
			case 1:
				delta = rng.Int63n(wheelSlots * wheelSlots)
			case 2:
				delta = rng.Int63n(wheelSpan)
			default:
				delta = rng.Int63n(4 * wheelSpan) // deep overflow
			}
			when := w.now + delta
			if when <= w.now {
				when = w.now + 1 // the wheel clamps; mirror it
			}
			id := nextID
			nextID++
			e, g := w.arm(w.now+delta, id)
			handles[id] = e
			gens[id] = g
			model = append(model, ref{when: when, id: id})
		case op < 8: // cancel a random armed entry (or a stale handle)
			if len(model) == 0 {
				continue
			}
			i := rng.Intn(len(model))
			id := model[i].id
			if !w.cancel(handles[id], gens[id]) {
				t.Fatalf("step %d: cancel of armed id %d failed", step, id)
			}
			model = append(model[:i], model[i+1:]...)
		default: // advance, mixing single ticks with long jumps
			var jump int64
			switch rng.Intn(3) {
			case 0:
				jump = 1 + rng.Int63n(4)
			case 1:
				jump = 1 + rng.Int63n(wheelSlots*wheelSlots)
			default:
				jump = 1 + rng.Int63n(2*wheelSpan)
			}
			target := w.now + jump
			fired = w.advance(target, fired[:0])
			// The model: everything due, ordered by (when, insertion).
			var due []ref
			var rest []ref
			for _, r := range model {
				if r.when <= target {
					due = append(due, r)
				} else {
					rest = append(rest, r)
				}
			}
			sort.SliceStable(due, func(i, j int) bool { return due[i].when < due[j].when })
			model = rest
			if len(fired) != len(due) {
				t.Fatalf("step %d: advance(%d) fired %d entries, model has %d due",
					step, target, len(fired), len(due))
			}
			for i, id := range fired {
				if id != due[i].id {
					t.Fatalf("step %d: fire #%d = id %d, model wants id %d (when %d)",
						step, i, id, due[i].id, due[i].when)
				}
			}
			for _, r := range due {
				delete(handles, r.id)
				delete(gens, r.id)
			}
		}
		if w.len() != len(model) {
			t.Fatalf("step %d: wheel len %d, model len %d", step, w.len(), len(model))
		}
	}
}

// TestWheelCancelSemantics pins the handle lifecycle: cancelling an armed
// entry succeeds once; cancelling after fire fails; a stale handle whose
// entry was recycled for a newer timer (the pool ABA case) fails and leaves
// the new timer armed.
func TestWheelCancelSemantics(t *testing.T) {
	w := newWheel[int]()
	e, g := w.arm(5, 1)
	if !w.cancel(e, g) {
		t.Fatal("cancel of armed entry failed")
	}
	if w.cancel(e, g) {
		t.Fatal("double cancel succeeded")
	}
	e2, g2 := w.arm(5, 2)
	if e2 != e {
		t.Fatal("pool did not recycle the freed entry (test premise broken)")
	}
	if w.cancel(e, g) {
		t.Fatal("stale handle cancelled a recycled entry (ABA)")
	}
	if w.len() != 1 {
		t.Fatalf("len = %d after stale cancel, want 1", w.len())
	}
	var out []int
	out = w.advance(5, out)
	if len(out) != 1 || out[0] != 2 {
		t.Fatalf("advance fired %v, want [2]", out)
	}
	if w.cancel(e2, g2) {
		t.Fatal("cancel after fire succeeded")
	}
}

// TestWheelResetAccounting: reset abandons exactly the armed entries, across
// levels and overflow, and leaves the wheel usable.
func TestWheelResetAccounting(t *testing.T) {
	w := newWheel[int]()
	deltas := []int64{1, 70, 5000, wheelSpan + 3, 2 * wheelSpan}
	for i, d := range deltas {
		w.arm(w.now+d, i)
	}
	e, g := w.arm(w.now+2, 99)
	w.cancel(e, g)
	if got := w.reset(); got != int64(len(deltas)) {
		t.Fatalf("reset abandoned %d, want %d", got, len(deltas))
	}
	if w.len() != 0 {
		t.Fatalf("len = %d after reset", w.len())
	}
	var out []int
	w.arm(w.now+1, 7)
	out = w.advance(w.now+1, out)
	if len(out) != 1 || out[0] != 7 {
		t.Fatalf("wheel unusable after reset: fired %v", out)
	}
}

// TestTimerWheelFireAndStop is the wall-clock face: callbacks fire after
// their delay, Stop before the deadline suppresses, Stop after fire reports
// false, zero delay fires, and nil handles are safe.
func TestTimerWheelFireAndStop(t *testing.T) {
	tw := newTimerWheel(0)
	defer tw.close()

	var fired atomic.Int32
	done := make(chan struct{})
	tw.schedule(2*time.Millisecond, func() { fired.Add(1); close(done) })
	stopped := tw.schedule(50*time.Millisecond, func() { fired.Add(100) })
	if !stopped.Stop() {
		t.Fatal("Stop of armed timer reported false")
	}
	if stopped.Stop() {
		t.Fatal("second Stop reported true")
	}
	zero := make(chan struct{})
	tw.schedule(0, func() { close(zero) })

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("2ms callback never fired")
	}
	select {
	case <-zero:
	case <-time.After(5 * time.Second):
		t.Fatal("zero-delay callback never fired")
	}
	time.Sleep(20 * time.Millisecond)
	if got := fired.Load(); got != 1 {
		t.Fatalf("fired = %d, want 1 (stopped callback ran?)", got)
	}
	var nilTimer *wheelTimer
	if nilTimer.Stop() {
		t.Fatal("nil handle Stop reported true")
	}
	if (&wheelTimer{}).Stop() {
		t.Fatal("zero handle Stop reported true")
	}
}

// TestTimerWheelCloseAccounting: close abandons exactly the still-armed
// callbacks (what ChanTransport.Close counts as dropped) and schedule after
// close returns nil without arming.
func TestTimerWheelCloseAccounting(t *testing.T) {
	tw := newTimerWheel(0)
	var ran atomic.Int32
	for i := 0; i < 5; i++ {
		tw.schedule(time.Hour, func() { ran.Add(1) })
	}
	if got := tw.len(); got != 5 {
		t.Fatalf("len = %d, want 5", got)
	}
	if got := tw.close(); got != 5 {
		t.Fatalf("close abandoned %d, want 5", got)
	}
	if got := tw.len(); got != 0 {
		t.Fatalf("len = %d after close, want 0", got)
	}
	if tw.schedule(time.Millisecond, func() { ran.Add(1) }) != nil {
		t.Fatal("schedule after close returned a handle")
	}
	if tw.schedule(0, func() { ran.Add(1) }) != nil {
		t.Fatal("zero-delay schedule after close returned a handle")
	}
	if got := tw.close(); got != 0 {
		t.Fatalf("second close abandoned %d, want 0", got)
	}
	time.Sleep(10 * time.Millisecond)
	if ran.Load() != 0 {
		t.Fatalf("%d abandoned callbacks ran", ran.Load())
	}
}

// TestTimerWheelRace hammers one wheel from many goroutines — schedule,
// Stop (including double-Stop from two goroutines), reschedule — under the
// race detector, with a close racing the tail. Exactness isn't asserted
// here (close races fire, as with AfterFunc); the invariant is no race, no
// deadlock, and no callback after close+grace.
func TestTimerWheelRace(t *testing.T) {
	tw := newTimerWheel(50 * time.Microsecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var last *wheelTimer
			for i := 0; i < 400; i++ {
				d := time.Duration(rng.Intn(3)) * 200 * time.Microsecond
				timer := tw.schedule(d, func() {})
				if rng.Intn(2) == 0 {
					// Two goroutines may race to stop the same handle.
					go timer.Stop()
					timer.Stop()
				}
				if last != nil && rng.Intn(4) == 0 {
					last.Stop()
				}
				last = timer
			}
		}(g)
	}
	wg.Wait()
	tw.close()
}
