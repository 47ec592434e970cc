package live

import (
	"errors"
	"strings"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/member"
	"gossip/internal/sim"
)

// memberTestConfig keeps live membership tests snappy: short probe interval,
// events recorded.
func memberTestConfig() *MembershipConfig {
	return &MembershipConfig{ProbeInterval: 4, Record: true}
}

// TestCrashPlanValidation is the satellite check: malformed crash schedules
// fail loudly up front instead of silently never firing.
func TestCrashPlanValidation(t *testing.T) {
	g := graph.Clique(4, 1)
	cases := map[string]map[graph.NodeID]CrashPlan{
		"recover-before-crash": {1: {At: 10, RecoverAt: 5}},
		"recover-equals-crash": {1: {At: 10, RecoverAt: 10}},
		"node-out-of-range":    {7: {At: 10}},
		"negative-node":        {-1: {At: 10}},
		"negative-at":          {1: {At: -3}},
		"negative-recover":     {1: {At: 3, RecoverAt: -1}},
	}
	for name, crashes := range cases {
		t.Run(name, func(t *testing.T) {
			tr := NewChanTransport(g.N())
			defer tr.Close()
			_, err := Run(g, ppProto{source: 0}, tr, Options{
				Seed: 1, Tick: testTick, Crashes: crashes,
			})
			if err == nil {
				t.Fatalf("crash plan %v accepted, want error", crashes)
			}
			if !strings.Contains(err.Error(), "live:") {
				t.Fatalf("unexpected error shape: %v", err)
			}
		})
	}
	// Control: a valid plan (including an entry for a non-hosted node in a
	// subset runtime) still passes validation.
	tr := NewChanTransport(g.N())
	defer tr.Close()
	res, err := Run(g, ppProto{source: 0}, tr, Options{
		Seed: 1, Tick: testTick,
		Crashes: map[graph.NodeID]CrashPlan{3: {At: 5, RecoverAt: 25}},
	})
	if err != nil {
		t.Fatalf("valid crash plan rejected: %v (completed=%v)", err, res.Completed)
	}
}

// TestMemberLiveSeedValidation rejects bootstrap seed peers outside the
// graph.
func TestMemberLiveSeedValidation(t *testing.T) {
	g := graph.Clique(4, 1)
	tr := NewChanTransport(g.N())
	defer tr.Close()
	mc := memberTestConfig()
	mc.Seeds = []graph.NodeID{0, 9}
	if _, err := Run(g, ppProto{source: 0}, tr, Options{
		Seed: 1, Tick: testTick, Membership: mc,
	}); err == nil {
		t.Fatal("out-of-range membership seed accepted")
	}
}

// TestMemberLiveConvergence runs a protocol with membership enabled on the
// in-process transport: the run completes, membership traffic flows and is
// accounted separately, and every node's final table holds the full cluster.
func TestMemberLiveConvergence(t *testing.T) {
	g := graph.Clique(8, 1)
	tr := NewChanTransport(g.N())
	defer tr.Close()
	res, err := Run(g, ppProto{source: 0}, tr, Options{
		Seed: 1, Tick: testTick, Membership: memberTestConfig(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatal("run not completed")
	}
	if res.Metrics.MemberPackets == 0 || res.Metrics.MemberBytes == 0 {
		t.Fatalf("no membership traffic accounted: %+v", res.Metrics)
	}
	if len(res.Members) != g.N() {
		t.Fatalf("Members has %d tables, want %d", len(res.Members), g.N())
	}
	if res.MemberEvents == nil {
		t.Fatal("MemberEvents nil despite Record")
	}
	// The protocol can finish before the single-seed join fully spreads, so
	// only the seed's own view is guaranteed complete here; the driver-based
	// tests in internal/member assert full convergence deterministically.
	for v, ups := range res.Members {
		for _, up := range ups {
			if up.St == member.Dead {
				t.Errorf("node %d holds a dead record %+v with no crash injected", v, up)
			}
		}
	}
}

// TestMemberLiveCompletionSkipsDetectedDead is the completion-semantics
// change: a crashed node with a recovery scheduled far in the future used to
// gate completion until it rejoined; with membership enabled, the run
// completes as soon as the cluster has declared it dead.
func TestMemberLiveCompletionSkipsDetectedDead(t *testing.T) {
	g := graph.Clique(6, 1)
	tr := NewChanTransport(g.N())
	defer tr.Close()
	const recoverAt = 3000
	res, err := Run(g, ppProto{source: 0}, tr, Options{
		Seed:       1,
		Tick:       testTick,
		MaxTicks:   3500,
		Crashes:    map[graph.NodeID]CrashPlan{3: {At: 2, RecoverAt: recoverAt}},
		Membership: memberTestConfig(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatal("run not completed")
	}
	if res.Metrics.Ticks >= recoverAt {
		t.Fatalf("completion waited for the scheduled recovery (%d ticks); membership should have released it around the detection bound", res.Metrics.Ticks)
	}
	// Every survivor's final table must hold the dead declaration.
	for v, ups := range res.Members {
		if v == 3 {
			continue
		}
		found := false
		for _, up := range ups {
			if up.Node == 3 && up.St == member.Dead {
				found = true
			}
		}
		if !found {
			t.Errorf("node %d completed without believing 3 dead: %+v", v, ups)
		}
	}
}

// TestMemberLiveRecoveryReadmission crashes a node and brings it back while
// the run is still going: the fresh detector bootstraps from the seeds again
// and the run completes with the node recovered.
func TestMemberLiveRecoveryReadmission(t *testing.T) {
	g := graph.Clique(6, 1)
	tr := NewChanTransport(g.N())
	defer tr.Close()
	// slowProto keeps the run alive long past the crash-recovery epoch so
	// completion genuinely waits for the recovered node to catch up.
	res, err := Run(g, slowProto{source: 0, minTick: 400}, tr, Options{
		Seed:       1,
		Tick:       testTick,
		MaxTicks:   4000,
		Crashes:    map[graph.NodeID]CrashPlan{4: {At: 2, RecoverAt: 250}},
		Membership: memberTestConfig(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatal("run not completed")
	}
	if !res.Recovered[4] {
		t.Fatal("node 4 not marked recovered")
	}
	// The recovered node's own detector restarted from the seed list and
	// must have rebuilt a view of the cluster.
	self := res.Members[4]
	if len(self) < 2 {
		t.Fatalf("recovered node's table is %+v; it never rejoined the gossip", self)
	}
	for _, up := range self {
		if up.Node == 4 && up.St != member.Alive {
			t.Fatalf("recovered node believes itself %v", up.St)
		}
	}
}

// slowProto wraps the push-pull test protocol with a minimum round count, so
// runs last long enough to cover crash-recovery epochs.
type slowProto struct {
	source  graph.NodeID
	minTick int
}

func (p slowProto) Name() string         { return "pushpull-slow-test" }
func (p slowProto) KnownLatencies() bool { return false }
func (p slowProto) NewHandler(u graph.NodeID) sim.Handler {
	return &slowNode{ppNode: ppNode{informed: u == p.source}}
}
func (p slowProto) LocalDone(_ graph.NodeID, h sim.Handler) bool {
	s := h.(*slowNode)
	return s.informed && s.ticks >= p.minTick
}

type slowNode struct {
	ppNode
	ticks int
}

func (n *slowNode) Tick(ctx *sim.Context) {
	n.ticks++
	n.ppNode.Tick(ctx)
}

// TestMemberDuplicatingFabricNoFalseDead: membership over a fabric that
// duplicates half its messages. A repeated ping, ack or gossip record is a
// no-op for the detector (an ack for a settled probe and a record at a known
// incarnation change nothing), so no node is ever declared dead.
func TestMemberDuplicatingFabricNoFalseDead(t *testing.T) {
	g := graph.Clique(8, 1)
	ft := NewFaultTransport(NewChanTransport(g.N()), FaultConfig{Seed: 5, Tick: testTick, Duplicate: 0.5})
	defer ft.Close()
	// No source, so the run spans the whole tick budget: many probe rounds.
	res, err := Run(g, ppProto{source: -1}, ft, Options{
		Seed: 1, Tick: testTick, MaxTicks: 300, Membership: memberTestConfig(),
	})
	if err != nil && !errors.Is(err, ErrMaxTicks) {
		t.Fatalf("Run: %v", err)
	}
	if ft.Faults().InjectedDups == 0 || res.Metrics.MemberPackets == 0 {
		t.Fatalf("no duplicated membership traffic: %d dups, %d member packets",
			ft.Faults().InjectedDups, res.Metrics.MemberPackets)
	}
	for v, ups := range res.Members {
		for _, up := range ups {
			if up.St == member.Dead {
				t.Errorf("node %d holds a dead record %+v with no crash injected", v, up)
			}
		}
	}
	for v, evs := range res.MemberEvents {
		for _, ev := range evs {
			if ev.St == member.Dead {
				t.Errorf("node %d logged a dead verdict with no crash injected: %v", v, ev)
			}
		}
	}
}
