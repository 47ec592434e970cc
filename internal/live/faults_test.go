package live

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"gossip/internal/graph"
	"gossip/internal/rng"
)

// scriptedFeed builds a deterministic message schedule: every half-edge of g
// carries one request per tick in [0, ticks). Feeding the same schedule into
// two transports must produce identical behaviour, which is what makes
// fault-injection determinism testable independently of goroutine timing.
func scriptedFeed(g *graph.Graph, ticks int) []Message {
	var feed []Message
	for tick := 0; tick < ticks; tick++ {
		for u := 0; u < g.N(); u++ {
			for _, he := range g.Neighbors(u) {
				feed = append(feed, Message{
					Kind:     MsgRequest,
					From:     graph.NodeID(u),
					To:       int(he.To),
					EdgeID:   int(he.ID),
					Latency:  int(he.Lat),
					SentTick: tick,
				})
			}
		}
	}
	return feed
}

// arrivalKey identifies one delivery for multiset comparison across runs.
type arrivalKey struct {
	edge     int
	from     graph.NodeID
	sentTick int
}

// runScripted feeds the schedule through a FaultTransport over a channel
// transport and returns the arrival multiset and the fault report (taken
// before Close so shutdown accounting can't leak in). The sink takes every
// surviving message inside Send, delay and all, so nothing is left to wait
// out.
func runScripted(t *testing.T, g *graph.Graph, feed []Message, cfg FaultConfig) (map[arrivalKey]int, FaultReport) {
	t.Helper()
	inner := NewChanTransport(g.N())
	ft := NewFaultTransport(inner, cfg)
	inbox := sinkInbox(t, ft)
	for _, m := range feed {
		if err := ft.Send(m, 0); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	got := make(map[arrivalKey]int)
	for u := 0; u < g.N(); u++ {
		for {
			select {
			case m := <-inbox(graph.NodeID(u)):
				got[arrivalKey{edge: m.EdgeID, from: m.From, sentTick: m.SentTick}]++
				continue
			default:
			}
			break
		}
	}
	rep := ft.Faults()
	ft.Close()
	return got, rep
}

// TestFaultTransportDeterministicReport is the chaos determinism check: the
// same fault plan over the same message schedule must drop, duplicate and
// jitter exactly the same messages on every run — byte-identical fault
// reports and identical arrival multisets. Fault decisions hash message
// identity, so goroutine scheduling cannot perturb them.
func TestFaultTransportDeterministicReport(t *testing.T) {
	g := graph.RingOfCliques(4, 4, 3)
	var cliqueA, rest []graph.NodeID
	for u := 0; u < g.N(); u++ {
		if u < 4 {
			cliqueA = append(cliqueA, graph.NodeID(u))
		} else {
			rest = append(rest, graph.NodeID(u))
		}
	}
	cfg := FaultConfig{
		Seed:        99,
		Drop:        0.10,
		Duplicate:   0.05,
		JitterTicks: 2,
		Tick:        time.Millisecond,
		Phases:      []FaultPhase{{From: 3, Until: 6, Cut: CutBetween(g, cliqueA, rest)}},
	}
	feed := scriptedFeed(g, 10)

	got1, rep1 := runScripted(t, g, feed, cfg)
	got2, rep2 := runScripted(t, g, feed, cfg)

	j1, err := json.Marshal(rep1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(rep2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("fault reports differ across identical runs:\n%s\n%s", j1, j2)
	}
	if len(got1) != len(got2) {
		t.Fatalf("arrival multisets differ in size: %d vs %d", len(got1), len(got2))
	}
	for k, n := range got1 {
		if got2[k] != n {
			t.Errorf("arrival %+v: %d vs %d deliveries", k, n, got2[k])
		}
	}
	if rep1.InjectedDrops == 0 || rep1.InjectedDups == 0 || rep1.Jittered == 0 || rep1.PartitionDrops == 0 {
		t.Errorf("fault plan injected nothing on some axis: %+v", rep1.FaultCounts)
	}
	sent := int64(len(feed))
	delivered := int64(0)
	for _, n := range got1 {
		delivered += int64(n)
	}
	if delivered != sent-rep1.InjectedDrops-rep1.PartitionDrops+rep1.InjectedDups {
		t.Errorf("delivery ledger does not balance: sent=%d delivered=%d counts=%+v",
			sent, delivered, rep1.FaultCounts)
	}
}

// TestFaultTransportZeroRatePassThrough is the zero-fault equivalence check
// at the transport level: an all-zero FaultTransport must behave exactly
// like the bare transport — every message delivered once, nothing counted.
func TestFaultTransportZeroRatePassThrough(t *testing.T) {
	g := graph.Dumbbell(4, 2)
	feed := scriptedFeed(g, 5)

	got, rep := runScripted(t, g, feed, FaultConfig{Seed: 7})
	if rep.Dropped() != 0 || rep.InjectedDups != 0 || rep.Jittered != 0 {
		t.Errorf("zero-rate plan injected faults: %+v", rep.FaultCounts)
	}
	delivered := 0
	for k, n := range got {
		if n != 1 {
			t.Errorf("arrival %+v delivered %d times, want 1", k, n)
		}
		delivered += n
	}
	if delivered != len(feed) {
		t.Errorf("delivered %d of %d messages through zero-fault plan", delivered, len(feed))
	}

	// The bare transport delivers the identical multiset.
	bare := NewChanTransport(g.N())
	defer bare.Close()
	bareIn := sinkInbox(t, bare)
	for _, m := range feed {
		if err := bare.Send(m, 0); err != nil {
			t.Fatal(err)
		}
	}
	bareGot := make(map[arrivalKey]int)
	for u := 0; u < g.N(); u++ {
		for {
			select {
			case m := <-bareIn(graph.NodeID(u)):
				bareGot[arrivalKey{edge: m.EdgeID, from: m.From, sentTick: m.SentTick}]++
				continue
			default:
			}
			break
		}
	}
	if len(bareGot) != len(got) {
		t.Fatalf("bare vs zero-fault arrival sets differ: %d vs %d", len(bareGot), len(got))
	}
	for k, n := range bareGot {
		if got[k] != n {
			t.Errorf("arrival %+v: bare %d vs zero-fault %d", k, n, got[k])
		}
	}
}

// TestPartitionWindow pins the partition semantics: messages of exchanges
// initiated inside [From, Until) are cut, everything else passes, and
// Until <= 0 never heals.
func TestPartitionWindow(t *testing.T) {
	g := graph.Path(2, 1) // a single edge
	edgeID := int(g.Neighbors(0)[0].ID)

	cfg := FaultConfig{Seed: 1, Phases: []FaultPhase{{From: 2, Until: 5, Cut: []int{edgeID}}}}
	got, rep := runScripted(t, g, scriptedFeed(g, 7), cfg)
	for k := range got {
		if k.sentTick >= 2 && k.sentTick < 5 {
			t.Errorf("message from tick %d crossed an active partition", k.sentTick)
		}
	}
	// 2 directions × ticks {2,3,4} cut.
	if rep.PartitionDrops != 6 {
		t.Errorf("PartitionDrops = %d, want 6", rep.PartitionDrops)
	}

	// Never-healing partition: everything from From onward is cut.
	cfg = FaultConfig{Seed: 1, Phases: []FaultPhase{{From: 3, Until: 0, Cut: []int{edgeID}}}}
	got, rep = runScripted(t, g, scriptedFeed(g, 7), cfg)
	for k := range got {
		if k.sentTick >= 3 {
			t.Errorf("message from tick %d crossed an unhealed partition", k.sentTick)
		}
	}
	if rep.PartitionDrops != 8 {
		t.Errorf("PartitionDrops = %d, want 8", rep.PartitionDrops)
	}

	// A cut outranks the loss draw: under certain loss, every message inside
	// the window is still a PartitionDrop.
	cfg = FaultConfig{Seed: 1, Drop: 1, Phases: []FaultPhase{{From: 2, Until: 5, Cut: []int{edgeID}}}}
	got, rep = runScripted(t, g, scriptedFeed(g, 7), cfg)
	if len(got) != 0 || rep.PartitionDrops != 6 || rep.InjectedDrops != 8 {
		t.Errorf("cut vs loss: %d arrivals, counts %+v; want 0, 6 partition drops, 8 injected", len(got), rep.FaultCounts)
	}
}

// TestPartitionCutBetween checks the cut derivation: on a dumbbell the cut
// between the halves is exactly the bridge, in either argument order.
func TestPartitionCutBetween(t *testing.T) {
	g := graph.Dumbbell(4, 2) // nodes 0..3 | 4..7, one bridge
	var left, right []graph.NodeID
	for u := 0; u < 4; u++ {
		left = append(left, graph.NodeID(u))
	}
	for u := 4; u < 8; u++ {
		right = append(right, graph.NodeID(u))
	}
	ab := CutBetween(g, left, right)
	ba := CutBetween(g, right, left)
	if len(ab) != 1 || len(ba) != 1 || ab[0] != ba[0] {
		t.Fatalf("dumbbell cut: %v / %v, want one shared bridge edge", ab, ba)
	}
	if got := CutBetween(g, left, left[:2]); len(got) == 0 {
		t.Error("intra-clique cut found no edges")
	}
	if got := CutBetween(g, left[:1], right[:1]); len(got) != 0 {
		t.Errorf("cut between non-adjacent nodes: %v", got)
	}
}

// TestChaosCrashRecoveryPushPull checks crash-recovery end to end: a node
// that crashes mid-run and rejoins with cleared state gets re-informed by
// push-pull, and the run completes counting it as a reachable survivor.
func TestChaosCrashRecoveryPushPull(t *testing.T) {
	g := graph.Clique(6, 1)
	tr := NewChanTransport(g.N())
	defer tr.Close()
	res, err := Run(g, ppProto{source: 0}, tr, Options{
		Seed:    5,
		Tick:    testTick,
		Crashes: map[graph.NodeID]CrashPlan{3: {At: 2, RecoverAt: 12}},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatal("run with a recovering node did not complete")
	}
	if !res.Recovered[3] {
		t.Error("node 3 not marked recovered")
	}
	if res.Crashed[3] {
		t.Error("recovered node still marked crashed")
	}
	if !res.Done[3] {
		t.Error("recovered node not re-informed")
	}
	if len(res.Faults.InformedOverTime) == 0 {
		t.Error("informed-over-time series not recorded")
	}

	// An invalid plan (recovery not after crash) must be rejected.
	if _, err := Run(g, ppProto{source: 0}, tr, Options{
		Seed:    5,
		Tick:    testTick,
		Crashes: map[graph.NodeID]CrashPlan{3: {At: 5, RecoverAt: 5}},
	}); err == nil {
		t.Error("want error for RecoverAt <= At")
	}
}

// TestFaultTransportClosePropagates checks the decorator's lifecycle: closing
// the FaultTransport closes the inner transport.
func TestFaultTransportClosePropagates(t *testing.T) {
	inner := NewChanTransport(2)
	ft := NewFaultTransport(inner, FaultConfig{})
	if err := ft.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := inner.Send(Message{To: 1}, 0); err == nil {
		t.Error("inner transport still open after decorator Close")
	}
}

// wholeRunIdent is the message identity whole-run faults hashed before the
// phase list existed; phase 0 must keep drawing exactly what it drew.
func wholeRunIdent(tag uint64, msg Message, attempt uint64) []uint64 {
	return []uint64{tag, uint64(msg.EdgeID), uint64(msg.Kind), uint64(msg.From), uint64(uint32(msg.SentTick)), attempt}
}

// TestFaultPhaseZeroKeepsWholeRunDraws pins the draw: over a table of
// messages, seeds and probabilities, phase 0's drop, duplicate and jitter
// decisions equal rng.Coin / rng.Hash over the whole-run identity tuple, and
// Send counts exactly the faults those decisions predict, so a FaultConfig
// run injects the same faults at the same seed as before.
func TestFaultPhaseZeroKeepsWholeRunDraws(t *testing.T) {
	feed := scriptedFeed(graph.RingOfCliques(3, 3, 2), 4)
	for i := range feed {
		feed[i].Kind = MsgKind(i % 3)
		feed[i].SentTick -= i % 2 // include a negative tick
	}
	for _, seed := range []uint64{1, 99, 5519} {
		for _, p := range []float64{0, 0.01, 0.05, 0.3, 0.5, 1} {
			for _, j := range []int{0, 1, 2, 5} {
				inner := NewChanTransport(9)
				inner.SetSink(func(Message, time.Duration) bool { return true })
				ft := NewFaultTransport(inner, FaultConfig{Seed: seed, Drop: p, Duplicate: p, JitterTicks: j})
				var want FaultCounts
				for _, msg := range feed {
					for _, tag := range []uint64{faultTagDrop, faultTagDup} {
						if got, ref := ft.coin(p, tag, 0, msg, 0), rng.Coin(p, seed, wholeRunIdent(tag, msg, 0)...); got != ref {
							t.Fatalf("seed %d p %v tag %d %+v: coin %v, whole-run formula %v", seed, p, tag, msg, got, ref)
						}
					}
					jit := [2]int{}
					for attempt := range jit {
						if j > 0 {
							jit[attempt] = int(rng.Hash(append([]uint64{seed}, wholeRunIdent(faultTagJitter, msg, uint64(attempt))...)...) % uint64(j+1))
						}
						if got := ft.jitterOf(msg, uint64(attempt)); got != jit[attempt] {
							t.Fatalf("seed %d J %d attempt %d %+v: jitter %d, whole-run formula %d", seed, j, attempt, msg, got, jit[attempt])
						}
					}
					if rng.Coin(p, seed, wholeRunIdent(faultTagDrop, msg, 0)...) {
						want.InjectedDrops++
					} else {
						if jit[0] > 0 {
							want.Jittered++
						}
						if rng.Coin(p, seed, wholeRunIdent(faultTagDup, msg, 0)...) {
							want.InjectedDups++
						}
					}
					if err := ft.Send(msg, 0); err != nil {
						t.Fatal(err)
					}
				}
				if got := ft.Faults().FaultCounts; got != want {
					t.Fatalf("seed %d p %v J %d: Send counted %+v, whole-run formula %+v", seed, p, j, got, want)
				}
				ft.Close()
			}
		}
	}
}

// TestFaultSendAllocs pins the cost of the fault layer: Send over a
// sink-installed channel transport allocates nothing, for the tcp-sat-lossy
// weather and for a loss-only staged phase.
func TestFaultSendAllocs(t *testing.T) {
	plans := map[string]FaultConfig{
		"weather": {Seed: 1, Drop: 0.05, Duplicate: 0.01, JitterTicks: 2},
		"staged":  {Seed: 1, Phases: []FaultPhase{{Name: "loss", Loss: 0.05}}},
	}
	for name, cfg := range plans {
		inner := NewChanTransport(2)
		inner.SetSink(func(Message, time.Duration) bool { return true })
		ft := NewFaultTransport(inner, cfg)
		msg := Message{Kind: MsgRequest, From: 0, To: 1, Payload: bitp{informed: true}}
		allocs := testing.AllocsPerRun(1000, func() {
			msg.SentTick++
			if err := ft.Send(msg, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocs per Send, want 0", name, allocs)
		}
		ft.Close()
	}
}

// nemesisNodes returns [0, n) as NodeIDs.
func nemesisNodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

// TestNemesisStagedChaosHeals is the acceptance scenario: an 8-node clique
// survives a flapping asymmetric partition, a loss burst with a latency
// ramp, and a crash+recover — and after the schedule heals, every survivor
// is informed, membership converges with zero false dead declarations, the
// queues drain to zero, and the goroutine count returns to baseline.
func TestNemesisStagedChaosHeals(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const n = 8
	g := graph.Clique(n, 1)
	left := nemesisNodes(n)[:4]  // 0-3
	right := nemesisNodes(n)[4:] // 4-7
	cut := CutBetween(g, left, right)

	// The partition flaps: one-way 0-3 → 4-7 cuts pulse 10 ticks on, 10 off,
	// interleaved with symmetric flapping of the cut edges (protocol traffic
	// rides graph edges; membership uses synthetic edge IDs, so the edge flap
	// stresses the protocol while the asym pulses stress the detector). The
	// pulses stay shorter than the 36-tick suspicion timeout, so verdicts
	// refute between pulses instead of fusing into an unhealable mutual-dead
	// split — the whole point of flapping over a solid cut.
	phases := []FaultPhase{
		{Name: "flap", From: 0, Until: 160, Cut: cut, FlapPeriod: 20, FlapUp: 10},
	}
	for k := 0; k < 8; k++ {
		phases = append(phases, FaultPhase{
			Name: "asym-pulse", From: 20 * k, Until: 20*k + 10,
			AsymFrom: left, AsymTo: right,
		})
	}
	phases = append(phases, FaultPhase{
		// After the partition heals: a loss burst while node 3 sinks into a
		// latency ramp.
		Name: "loss+slow", From: 160, Until: 320,
		Loss:      0.10,
		SlowNodes: []graph.NodeID{3}, SlowMaxTicks: 4,
	})
	lossPhase := len(phases) - 1

	inner := NewChanTransport(n)
	ft := NewFaultTransport(inner, FaultConfig{Seed: 99, Tick: testTick, Phases: phases})

	res, err := Run(g, ppProto{source: 0}, ft, Options{
		Seed: 17, Tick: testTick, MaxTicks: 60000,
		Linger: 500 * time.Millisecond,
		// Recovery lands while the partition still gates completion, so the
		// run cannot finish without re-informing the recovered node.
		Crashes:    map[graph.NodeID]CrashPlan{5: {At: 60, RecoverAt: 120}},
		Membership: &MembershipConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The recovery invariants: completion, informed survivors, no surviving
	// false dead verdicts. Node 5 recovered, so all 8 are survivors.
	if verr := VerifyRecovery(res, nemesisNodes(n)); verr != nil {
		t.Fatal(verr)
	}
	if !res.Recovered[5] || !res.Done[5] {
		t.Fatalf("crashed node never recovered+informed: recovered=%v done=%v",
			res.Recovered[5], res.Done[5])
	}

	// Every staged fault class actually fired.
	faults := ft.Faults()
	rep := faults.Phases
	if rep[0].CutDrops == 0 {
		t.Fatalf("flapping links ate nothing: %+v", rep[0])
	}
	var asym, partition int64
	for _, pr := range rep {
		asym += pr.AsymDrops
		partition += pr.AsymDrops + pr.CutDrops
	}
	if asym == 0 {
		t.Fatalf("asymmetric pulses ate nothing: %+v", rep)
	}
	if rep[lossPhase].LossDrops == 0 {
		t.Fatalf("loss burst ate nothing: %+v", rep[lossPhase])
	}
	if rep[lossPhase].Delayed == 0 {
		t.Fatalf("latency ramp slowed nothing: %+v", rep[lossPhase])
	}
	// And the ledger surfaces through the standard fault report.
	if faults.PartitionDrops != partition {
		t.Fatalf("Faults().PartitionDrops = %d, want %d", faults.PartitionDrops, partition)
	}
	if faults.InjectedDrops < rep[lossPhase].LossDrops {
		t.Fatalf("Faults().InjectedDrops = %d < loss drops %d", faults.InjectedDrops, rep[lossPhase].LossDrops)
	}

	// Queues drain to zero and the process returns to its goroutine baseline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drep, derr := ft.Drain(ctx)
	if derr != nil {
		t.Fatalf("Drain: %v", derr)
	}
	if !drep.Clean {
		t.Fatalf("post-chaos drain not clean: %+v", drep)
	}
	if !pollUntil(10*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseline+2
	}) {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
	}
}

// TestNemesisDeterministicLoss: the loss draw is a pure function of (seed,
// phase, message identity) — the same message meets the same fate across
// transports and runs, and a different seed redraws it.
func TestNemesisDeterministicLoss(t *testing.T) {
	phase := []FaultPhase{{Name: "loss", From: 0, Until: 0, Loss: 0.5}}
	msg := func(tick int) Message {
		return Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 7, Latency: 1,
			SentTick: tick, Payload: bitp{informed: true}}
	}
	outcomes := func(seed uint64) []bool {
		inner := NewChanTransport(2)
		defer inner.Close()
		ft := NewFaultTransport(inner, FaultConfig{Seed: seed, Tick: testTick, Phases: phase})
		inbox := sinkInbox(t, ft)
		var got []bool
		for tick := 0; tick < 64; tick++ {
			if err := ft.Send(msg(tick), 0); err != nil {
				t.Fatal(err)
			}
			// The sink takes a surviving message inside Send.
			select {
			case <-inbox(1):
				got = append(got, true)
			default:
				got = append(got, false)
			}
		}
		return got
	}

	a, b := outcomes(42), outcomes(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at message %d", i)
		}
	}
	c := outcomes(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds drew identical loss patterns")
	}
	delivered := 0
	for _, ok := range a {
		if ok {
			delivered++
		}
	}
	if delivered == 0 || delivered == len(a) {
		t.Fatalf("50%% loss delivered %d/%d — draw not engaged", delivered, len(a))
	}
}

// TestNemesisPhaseWindows: phases only touch exchanges initiated inside
// their tick window; the asymmetric cut is one-way.
func TestNemesisPhaseWindows(t *testing.T) {
	inner := NewChanTransport(2)
	defer inner.Close()
	ft := NewFaultTransport(inner, FaultConfig{Seed: 1, Tick: testTick, Phases: []FaultPhase{{
		Name: "asym", From: 10, Until: 20,
		AsymFrom: []graph.NodeID{0}, AsymTo: []graph.NodeID{1},
	}}})
	inbox := sinkInbox(t, ft)
	send := func(from, to graph.NodeID, tick int) bool {
		msg := Message{Kind: MsgRequest, From: from, To: to, EdgeID: 3,
			Latency: 1, SentTick: tick, Payload: bitp{informed: true}}
		if err := ft.Send(msg, 0); err != nil {
			t.Fatal(err)
		}
		// The sink takes a surviving message inside Send.
		select {
		case <-inbox(to):
			return true
		default:
			return false
		}
	}
	if !send(0, 1, 5) {
		t.Fatal("message before the window was eaten")
	}
	if send(0, 1, 15) {
		t.Fatal("message inside the window got through the cut")
	}
	if !send(1, 0, 15) {
		t.Fatal("reverse direction was cut — partition not asymmetric")
	}
	if !send(0, 1, 25) {
		t.Fatal("message after the window was eaten")
	}
	rep := ft.Faults().Phases
	if rep[0].AsymDrops != 1 {
		t.Fatalf("AsymDrops = %d, want 1", rep[0].AsymDrops)
	}
}

// TestNemesisFlapSquareWave: a flapping link is up for FlapUp ticks of every
// FlapPeriod and down for the rest.
func TestNemesisFlapSquareWave(t *testing.T) {
	p := FaultPhase{From: 100, Until: 0, Cut: []int{1}, FlapPeriod: 10, FlapUp: 4}
	for tick := 100; tick < 130; tick++ {
		wantDown := (tick-100)%10 >= 4
		if got := p.cutDown(tick); got != wantDown {
			t.Fatalf("cutDown(%d) = %v, want %v", tick, got, wantDown)
		}
	}
	// Default duty cycle: up for ⌈period/2⌉.
	def := FaultPhase{From: 0, Cut: []int{1}, FlapPeriod: 4}
	if def.cutDown(0) || def.cutDown(1) || !def.cutDown(2) || !def.cutDown(3) {
		t.Fatal("default duty cycle is not half-up")
	}
}

// TestNemesisSlowRamp: the extra delay ramps linearly across the window and
// clamps at SlowMaxTicks.
func TestNemesisSlowRamp(t *testing.T) {
	p := FaultPhase{From: 0, Until: 100, SlowNodes: []graph.NodeID{1}, SlowMaxTicks: 10}
	if got := p.slowExtra(0); got != 0 {
		t.Fatalf("slowExtra(0) = %d, want 0", got)
	}
	if got := p.slowExtra(49); got != 5 {
		t.Fatalf("slowExtra(49) = %d, want 5", got)
	}
	if got := p.slowExtra(99); got != 10 {
		t.Fatalf("slowExtra(99) = %d, want 10", got)
	}
	// Unbounded phase: flat maximum.
	flat := FaultPhase{From: 0, Until: 0, SlowNodes: []graph.NodeID{1}, SlowMaxTicks: 7}
	if got := flat.slowExtra(1000); got != 7 {
		t.Fatalf("unbounded slowExtra = %d, want 7", got)
	}
}
