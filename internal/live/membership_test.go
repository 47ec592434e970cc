package live

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestMemberDeadPeerRefusedOnSocket: membership verdicts reach a socket
// transport. Every node runtime 1 hosts crashes, so runtime 0's detectors
// declare them all dead; runtime 0 completes, and its transport then refuses
// sends toward runtime 1's address, each refusal a counted loss and none
// reaching runtime 1.
func TestMemberDeadPeerRefusedOnSocket(t *testing.T) {
	g := graph.Clique(8, 1)
	crashes := map[graph.NodeID]CrashPlan{}
	for u := graph.NodeID(4); u < 8; u++ { // runtime 1's half
		crashes[u] = CrashPlan{At: 20}
	}
	trs, wait := unixPair(t, g, slowProto{source: 0, minTick: 400}, Options{
		Seed: 1, Tick: testTick, MaxTicks: 4000, Crashes: crashes, Membership: memberTestConfig(),
	})
	res := wait()
	if !res[0].Completed {
		t.Fatal("runtime 0 did not complete")
	}
	for v := 0; v < 4; v++ {
		dead := 0
		for _, up := range res[0].Members[v] {
			if up.Node >= 4 && up.St == member.Dead {
				dead++
			}
		}
		if dead != 4 {
			t.Fatalf("node %d believes %d of runtime 1's 4 nodes dead: %+v", v, dead, res[0].Members[v])
		}
	}

	a, b := trs[0], trs[1]
	arrived := b.Dropped() // runtime 1 has returned: an arrival is a misroute there
	for i, to := range []graph.NodeID{4, 5, 6, 7} {
		before := a.Dropped()
		if err := a.Send(Message{Kind: MsgRequest, From: 0, To: to, EdgeID: -1, Latency: 1, SentTick: 1 << 20,
			Payload: bitp{informed: true}}, 0); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if got := a.Dropped(); got != before+1 {
			t.Fatalf("send %d to node %d: Dropped %d -> %d, want a refusal counted at once", i, to, before, got)
		}
	}
	if q, u := a.stages(); q != 0 || u != 0 {
		t.Fatalf("refused sends left %d queued, %d unacked", q, u)
	}
	time.Sleep(20 * time.Millisecond) // an admitted send would arrive meanwhile
	if got := b.Dropped(); got != arrived {
		t.Fatalf("runtime 1 counted %d arrivals after the refusals", got-arrived)
	}
}

// TestMemberRecoveredPeerReadmittedOnSocket: every node runtime 1 hosts
// crashes and later recovers. Runtime 0's detectors declare them all dead,
// so its transport refuses their address; a recovered node restarts at
// incarnation 0 and learns of its Dead record only from the ack runtime 0
// sends back to its probe. That membership reply must cross the refused
// route, so the node refutes, PeerUp re-admits the address, and runtime 0's
// pull responses inform the recovered nodes: runtime 1 completes.
func TestMemberRecoveredPeerReadmittedOnSocket(t *testing.T) {
	g := graph.Clique(8, 1)
	crashes := map[graph.NodeID]CrashPlan{}
	for u := graph.NodeID(4); u < 8; u++ { // runtime 1's half
		crashes[u] = CrashPlan{At: 20, RecoverAt: 200}
	}
	trs, wait := unixPair(t, g, slowProto{source: 0, minTick: 300}, Options{
		Seed: 1, Tick: testTick, MaxTicks: 4000, Crashes: crashes,
		Membership: memberTestConfig(), Linger: time.Second,
	})
	a, b := trs[0], trs[1]
	r := a.routes.Load().lookup(4)
	// Watch the route: it must go down (every node dead) and come back up.
	var wentDown, cameBack atomic.Bool
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if r.down.Load() {
				wentDown.Store(true)
			} else if wentDown.Load() {
				cameBack.Store(true)
			}
		}
	}()
	res := wait()
	close(stop)
	<-watched
	if !wentDown.Load() {
		t.Fatal("runtime 0 never refused runtime 1's address; the crashes were not all detected before recovery")
	}
	if !cameBack.Load() || r.down.Load() {
		t.Fatal("runtime 1's address was never re-admitted after its nodes recovered")
	}
	for i, rs := range res {
		if !rs.Completed {
			t.Fatalf("runtime %d did not complete", i)
		}
	}
	for u := 4; u < 8; u++ {
		if !res[1].Recovered[u] {
			t.Fatalf("node %d not marked recovered", u)
		}
	}
	for v := 0; v < 4; v++ {
		for _, up := range res[0].Members[v] {
			if up.Node >= 4 && up.St == member.Dead {
				t.Errorf("node %d still believes %d dead at the end: %+v", v, up.Node, up)
			}
		}
	}

	// Sends to the re-admitted address are written again, not refused.
	arrived := b.Dropped() // runtime 1 has returned: an arrival is a misroute there
	refused := a.dropsDown.Load()
	for _, to := range []graph.NodeID{4, 5, 6, 7} {
		if err := a.Send(Message{Kind: MsgRequest, From: 0, To: to, EdgeID: -1, Latency: 1, SentTick: 1 << 20,
			Payload: bitp{informed: true}}, 0); err != nil {
			t.Fatalf("send to %d: %v", to, err)
		}
	}
	if got := a.dropsDown.Load(); got != refused {
		t.Fatalf("%d sends refused after re-admission", got-refused)
	}
	if !pollUntil(5*time.Second, func() bool { return b.Dropped() == arrived+4 }) {
		t.Fatalf("runtime 1 counted %d of 4 arrivals after re-admission", b.Dropped()-arrived)
	}
}
