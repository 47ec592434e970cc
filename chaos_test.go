package gossip

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gossip/internal/graph"
	"gossip/internal/live"
)

// chaosTick keeps chaos runs fast while staying coarse enough for timer
// resolution under -race.
const chaosTick = 500 * time.Microsecond

// TestZeroFaultEquivalence is the satellite-2 check through the public API:
// a FaultTransport with an all-zero plan must leave a run indistinguishable
// from the bare transport — same completion, same informed set per seed, and
// a ledger showing zero injected faults.
func TestZeroFaultEquivalence(t *testing.T) {
	graphs := map[string]*Graph{
		"ringcliques": RingOfCliques(8, 8, 4),
		"dumbbell":    Dumbbell(8, 6),
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{1, 42} {
				bare, err := RunLive(g, LivePushPull(0), LiveOptions{Seed: seed, Tick: chaosTick})
				if err != nil {
					t.Fatalf("seed %d bare run: %v", seed, err)
				}
				faulted, err := RunLive(g, LivePushPull(0), LiveOptions{
					Seed:   seed,
					Tick:   chaosTick,
					Faults: &LiveFaultConfig{Seed: seed},
				})
				if err != nil {
					t.Fatalf("seed %d zero-fault run: %v", seed, err)
				}
				if bare.Completed != faulted.Completed {
					t.Errorf("seed %d: completed %v vs %v", seed, bare.Completed, faulted.Completed)
				}
				for u := 0; u < g.N(); u++ {
					if bare.Done[u] != faulted.Done[u] {
						t.Errorf("seed %d node %d: informed %v bare vs %v zero-fault",
							seed, u, bare.Done[u], faulted.Done[u])
					}
				}
				f := faulted.Faults
				if f.InjectedDrops != 0 || f.InjectedDups != 0 || f.Jittered != 0 || f.PartitionDrops != 0 {
					t.Errorf("seed %d: zero plan injected faults: %+v", seed, f.FaultCounts)
				}
			}
		})
	}
}

// TestChaosPushPullRingOfCliques is the acceptance scenario: push-pull on
// the ring of cliques under 10% drop, 5% dup, one partition-heal epoch and a
// permanent crash of one interior node completes among the reachable
// survivors, and a second identical run agrees on the outcome. (The fault
// decisions themselves are pure functions of the fault seed and message
// identity — see TestFaultTransportDeterministicReport in internal/live for
// the byte-identical-report check on a fixed message schedule.)
func TestChaosPushPullRingOfCliques(t *testing.T) {
	g := RingOfCliques(8, 8, 4) // 64 nodes: cliques {0..7}, {8..15}, ...
	var cliqueA, rest []NodeID
	for u := 0; u < g.N(); u++ {
		if u < 8 {
			cliqueA = append(cliqueA, NodeID(u))
		} else {
			rest = append(rest, NodeID(u))
		}
	}
	const crashed = 12 // interior node of the second clique
	run := func() LiveResult {
		res, err := RunLive(g, LivePushPull(0), LiveOptions{
			Seed: 7,
			Tick: chaosTick,
			Faults: &LiveFaultConfig{
				Seed:      1234,
				Drop:      0.10,
				Duplicate: 0.05,
				Phases: []LiveFaultPhase{
					{From: 5, Until: 40, Cut: LiveCutBetween(g, cliqueA, rest)},
				},
			},
			Crashes: map[NodeID]LiveCrash{crashed: {At: 1}},
		})
		if err != nil {
			t.Fatalf("chaos run: %v", err)
		}
		return res
	}
	r1 := run()
	if !r1.Completed {
		t.Fatal("chaos run did not complete among reachable survivors")
	}
	if r1.Done[crashed] {
		t.Error("permanently crashed node reported informed")
	}
	if !r1.Crashed[crashed] {
		t.Error("crashed node not marked crashed")
	}
	for u := 0; u < g.N(); u++ {
		if u != crashed && !r1.Done[u] {
			t.Errorf("survivor %d not informed", u)
		}
	}
	if r1.Faults.Dropped() == 0 || r1.Faults.InjectedDups == 0 {
		t.Errorf("chaos plan injected nothing: %+v", r1.Faults.FaultCounts)
	}
	if len(r1.Faults.Phases) != 1 {
		t.Errorf("partition epoch not echoed in the report: %+v", r1.Faults.Phases)
	}
	if len(r1.Faults.InformedOverTime) == 0 {
		t.Error("informed-over-time series missing")
	}

	r2 := run()
	if r1.Completed != r2.Completed {
		t.Errorf("identical chaos runs disagree on completion: %v vs %v", r1.Completed, r2.Completed)
	}
	for u := 0; u < g.N(); u++ {
		if r1.Done[u] != r2.Done[u] {
			t.Errorf("identical chaos runs disagree on node %d: %v vs %v", u, r1.Done[u], r2.Done[u])
		}
	}
}

// TestChaosPushPullPropertyCompletes is the satellite-3 property: live
// push-pull with drop <= 0.3 and duplication <= 0.2 still completes on
// connected seeded random graphs — randomized gossip reroutes around loss,
// the robustness the paper's conclusion credits it with.
func TestChaosPushPullPropertyCompletes(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := graph.GNP(24, 0.3, 1, true, seed) // forced connected
		res, err := RunLive(g, LivePushPull(0), LiveOptions{
			Seed: seed,
			Tick: chaosTick,
			Faults: &LiveFaultConfig{
				Seed:        seed * 77,
				Drop:        0.30,
				Duplicate:   0.20,
				JitterTicks: 2,
			},
		})
		if err != nil {
			t.Errorf("seed %d: lossy push-pull failed: %v", seed, err)
			continue
		}
		if !res.Completed {
			t.Errorf("seed %d: lossy push-pull did not complete", seed)
		}
		if res.Faults.InjectedDrops == 0 {
			t.Errorf("seed %d: 30%% drop plan dropped nothing", seed)
		}
	}
}

// TestPartitionRRBroadcastFailsClosed is the other half of satellite 3: RR
// Broadcast runs a fixed schedule through specific spanner edges, so an
// unhealed mid-run partition of the dumbbell bridge must leave it incomplete
// — and it must fail closed (ErrLiveMaxTicks well before the tick budget's worth
// of wall time), not hang.
func TestPartitionRRBroadcastFailsClosed(t *testing.T) {
	g := Dumbbell(4, 2) // 8 nodes, one bridge
	var left, right []NodeID
	for u := 0; u < 4; u++ {
		left = append(left, NodeID(u))
	}
	for u := 4; u < 8; u++ {
		right = append(right, NodeID(u))
	}
	opts := LiveOptions{
		Seed:     3,
		Tick:     chaosTick,
		MaxTicks: 4000,
		Faults: &LiveFaultConfig{
			Seed: 3,
			Phases: []LiveFaultPhase{
				{From: 4, Until: 0, Cut: LiveCutBetween(g, left, right)}, // never heals
			},
		},
	}
	proto, err := LiveRRBroadcast(g, 2, 0, opts)
	if err != nil {
		t.Fatalf("LiveRRBroadcast: %v", err)
	}
	done := make(chan struct{})
	var res LiveResult
	var runErr error
	go func() {
		defer close(done)
		res, runErr = RunLive(g, proto, opts)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("partitioned RR broadcast hung instead of failing closed")
	}
	if res.Completed {
		t.Fatal("RR broadcast completed across an unhealed partition")
	}
	if !errors.Is(runErr, ErrLiveMaxTicks) {
		t.Errorf("want ErrLiveMaxTicks, got %v", runErr)
	}
	// The fixed schedule ends long before the tick budget: failing closed
	// means the run stopped at schedule end, not at MaxTicks.
	if res.Metrics.Ticks >= opts.MaxTicks {
		t.Errorf("run burned the whole tick budget (%d): schedule did not fail closed", res.Metrics.Ticks)
	}
	if res.Faults.PartitionDrops == 0 {
		t.Error("partition cut no messages")
	}
}

// TestChaosRRBroadcastFaultFree sanity-checks the live RR descriptor on a
// healthy network: the fixed schedule completes all-to-all dissemination
// just as it does under the round simulator.
func TestChaosRRBroadcastFaultFree(t *testing.T) {
	g := Dumbbell(4, 2)
	opts := LiveOptions{Seed: 3, Tick: chaosTick, MaxTicks: 4000}
	proto, err := LiveRRBroadcast(g, 2, 0, opts)
	if err != nil {
		t.Fatalf("LiveRRBroadcast: %v", err)
	}
	res, err := RunLive(g, proto, opts)
	if err != nil {
		t.Fatalf("fault-free RR run: %v", err)
	}
	if !res.Completed {
		t.Fatal("fault-free RR broadcast did not complete")
	}
	for u := 0; u < g.N(); u++ {
		if !res.Done[u] {
			t.Errorf("node %d missing rumors after RR broadcast", u)
		}
	}
}

// TestChaosCrashRecoveryPublicAPI drives a crash-recovery schedule through
// LiveOptions: the recovering node rejoins with cleared state, is
// re-informed, and counts toward completion.
func TestChaosCrashRecoveryPublicAPI(t *testing.T) {
	g := Clique(6, 1)
	res, err := RunLive(g, LivePushPull(0), LiveOptions{
		Seed:    5,
		Tick:    chaosTick,
		Crashes: map[NodeID]LiveCrash{3: {At: 2, RecoverAt: 12}},
	})
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if !res.Completed {
		t.Fatal("run with a recovering node did not complete")
	}
	if !res.Recovered[3] || res.Crashed[3] || !res.Done[3] {
		t.Errorf("recovery outcome wrong: recovered=%v crashed=%v done=%v",
			res.Recovered[3], res.Crashed[3], res.Done[3])
	}
}

// dupPlan duplicates every other message and loses none: every transport
// delivers both copies, so the run exercises the handlers' idempotence and
// nothing else.
func dupPlan(seed uint64) *LiveFaultConfig {
	return &LiveFaultConfig{Seed: seed, Tick: chaosTick, Duplicate: 0.5}
}

// TestDuplicatingFabricSameDone: every live protocol merges what it learns
// by union, so a repeated request or response is a no-op. Under a plan that
// duplicates half the messages, push-pull, flood and RR Broadcast reach the
// same Done set as the fault-free run on the same seed.
func TestDuplicatingFabricSameDone(t *testing.T) {
	g := RingOfCliques(8, 8, 4)
	protos := map[string]func(LiveOptions) (LiveProtocol, error){
		"pushpull": func(LiveOptions) (LiveProtocol, error) { return LivePushPull(0), nil },
		"flood":    func(LiveOptions) (LiveProtocol, error) { return LiveFlood(0), nil },
		"rr":       func(o LiveOptions) (LiveProtocol, error) { return LiveRRBroadcast(g, 4, 0, o) },
	}
	for name, mk := range protos {
		t.Run(name, func(t *testing.T) {
			run := func(faults *LiveFaultConfig) LiveResult {
				t.Helper()
				opts := LiveOptions{Seed: 11, Tick: chaosTick, MaxTicks: 4000, Faults: faults}
				proto, err := mk(opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunLive(g, proto, opts)
				if err != nil {
					t.Fatalf("faults=%v: %v", faults != nil, err)
				}
				return res
			}
			clean, dup := run(nil), run(dupPlan(5))
			if !clean.Completed || !dup.Completed {
				t.Fatalf("completed: fault-free %v, duplicating %v", clean.Completed, dup.Completed)
			}
			for u := 0; u < g.N(); u++ {
				if clean.Done[u] != dup.Done[u] {
					t.Errorf("node %d: done %v fault-free, %v with duplicates", u, clean.Done[u], dup.Done[u])
				}
			}
			// TransportDrops may be nonzero: they count what was in flight
			// when the runtime stopped.
			if f := dup.Faults; f.InjectedDups == 0 || f.InjectedDrops+f.PartitionDrops != 0 {
				t.Errorf("plan did not duplicate without loss: %+v", f.FaultCounts)
			}
		})
	}
}

// TestDuplicatingUnixPairPushPull: push-pull split across two runtimes over
// unix sockets completes under the duplicating plan. The stream transports
// deliver both copies of every duplicated message that crosses the socket.
func TestDuplicatingUnixPairPushPull(t *testing.T) {
	if testing.Short() {
		t.Skip("socket cluster run is not -short friendly")
	}
	g := RingOfCliques(8, 8, 4)
	half := g.N() / 2
	var hosted [2][]NodeID
	for u := 0; u < g.N(); u++ {
		hosted[u/half] = append(hosted[u/half], NodeID(u))
	}
	dir, err := os.MkdirTemp("", "gsp")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	var trs [2]*live.TCPTransport
	addrs := make(map[NodeID]string, g.N())
	for i := range trs {
		path := filepath.Join(dir, fmt.Sprintf("%d.sock", i))
		tr, err := live.NewUnixTransport(path, hosted[i])
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[i] = tr
		for _, u := range hosted[i] {
			addrs[u] = "unix://" + path
		}
	}
	var wg sync.WaitGroup
	var results [2]LiveResult
	var errs [2]error
	for i := range trs {
		trs[i].SetPeers(addrs)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunLiveTransport(g, LivePushPull(0), trs[i], LiveOptions{
				Seed: 11, Tick: time.Millisecond, Nodes: hosted[i], Linger: 200 * time.Millisecond,
				Faults: dupPlan(5),
			})
		}(i)
	}
	wg.Wait()
	var dups int64
	for i, r := range results {
		if errs[i] != nil || !r.Completed {
			t.Fatalf("runtime %d: completed=%v err=%v", i, r.Completed, errs[i])
		}
		for _, u := range hosted[i] {
			if !r.Done[u] {
				t.Errorf("node %d not informed", u)
			}
		}
		dups += r.Faults.InjectedDups
	}
	if dups == 0 {
		t.Error("plan duplicated nothing")
	}
}
