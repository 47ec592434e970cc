package live

import (
	"sync"
	"testing"
	"time"

	"gossip/internal/graph"
	"gossip/internal/member"
	"gossip/internal/sim"
)

// sweepRuntime lays a run out on shards without starting them, installs its
// sink on tr and starts the handlers, so a test drives each sweep itself.
// The tick is an hour long, so every s.tick() advances the shard's calendar
// by exactly one tick however long the test takes.
func sweepRuntime(t testing.TB, g *graph.Graph, proto Protocol, tr Transport, opts Options) *Runtime {
	t.Helper()
	opts.Tick = time.Hour
	rt, st, err := newRuntime(g, proto, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.SetSink(rt.sink) {
		t.Fatal("sink refused")
	}
	rt.epoch = time.Now()
	for _, n := range rt.local {
		n.h.Start(n.ctx)
		n.updateDone()
	}
	return rt
}

// alwaysCongested reports a congested connection on every read: a
// runtime whose cong it is holds every sweep.
type alwaysCongested struct{}

func (alwaysCongested) congested() bool { return true }

// callProto is push-pull that counts the calls its handlers take.
type callProto struct{}

type callNode struct {
	ppNode
	ticks, dones, requests, responses int
}

func (callProto) Name() string                             { return "call-test" }
func (callProto) KnownLatencies() bool                     { return false }
func (callProto) NewHandler(graph.NodeID) sim.Handler      { return &callNode{} }
func (callProto) LocalDone(graph.NodeID, sim.Handler) bool { return false }

func (n *callNode) Tick(ctx *sim.Context) { n.ticks++; n.ppNode.Tick(ctx) }
func (n *callNode) Done() bool            { n.dones++; return false }
func (n *callNode) OnRequest(ctx *sim.Context, req sim.Request) sim.Payload {
	n.requests++
	return n.ppNode.OnRequest(ctx, req)
}
func (n *callNode) OnResponse(ctx *sim.Context, resp sim.Response) {
	n.responses++
	n.ppNode.OnResponse(ctx, resp)
}

// nodeState is what a sweep may change of a node besides its handler.
type nodeState struct {
	tick               int
	initiated, halted  bool
	done, exhausted    bool
	requests, memberPk int
}

func stateOf(n *node) nodeState {
	return nodeState{n.tick, n.initiated, n.halted, n.done.Load(), n.exhausted.Load(), n.m.Requests, n.m.MemberPackets}
}

// TestShardIdleSweepTouchesNoNode: a sweep on which no node may initiate —
// held by a congested transport, or quiesced in the linger — takes no round,
// calls neither Tick nor Done and changes no node's state, yet the calendar
// still fires: a request armed before the sweep is answered on it, and the
// response reaches its initiator on the next one.
func TestShardIdleSweepTouchesNoNode(t *testing.T) {
	for _, mode := range []string{"held", "quiesced"} {
		t.Run(mode, func(t *testing.T) {
			g := graph.Path(2, 2) // request and response one tick each
			tr := NewChanTransport(g.N())
			defer tr.Close()
			rt := sweepRuntime(t, g, callProto{}, tr, Options{Seed: 1, Shards: 1})
			s := rt.shards[0]
			s.tick() // working: both nodes initiate
			for i := range s.nodes {
				if h := s.nodes[i].h.(*callNode); h.ticks != 1 || s.nodes[i].m.Requests != 1 {
					t.Fatalf("node %d: %d ticks, %d requests after a working sweep; want 1, 1", i, h.ticks, s.nodes[i].m.Requests)
				}
			}
			if mode == "held" {
				rt.cong = alwaysCongested{}
			} else {
				rt.quiesced.Store(true)
			}
			var before [2]nodeState
			for i := range s.nodes {
				before[i] = stateOf(&s.nodes[i])
			}
			for sweep := 2; sweep <= 4; sweep++ {
				s.tick()
				for i := range s.nodes {
					n := &s.nodes[i]
					h := n.h.(*callNode)
					if h.ticks != 1 || h.dones != 1 || stateOf(n) != before[i] {
						t.Fatalf("sweep %d: node %d took %d ticks, %d Done calls, state %+v (was %+v)",
							sweep, i, h.ticks, h.dones, stateOf(n), before[i])
					}
					if h.requests != 1 || n.m.Responses != 1 {
						t.Fatalf("sweep %d: node %d answered %d requests (%d responses sent); want the armed one",
							sweep, i, h.requests, n.m.Responses)
					}
					if want := min(sweep-2, 1); h.responses != want {
						t.Fatalf("sweep %d: node %d took %d responses, want %d", sweep, i, h.responses, want)
					}
				}
			}
			if s.sweeps != 4 {
				t.Fatalf("shard swept %d times, want 4: its wall clock stopped", s.sweeps)
			}
		})
	}
}

// TestShardCrashPlanOnSchedule: a crash plan fires on the sweep its At
// names and its recovery on the sweep RecoverAt names — the node is down
// from the one through the other inclusive and takes its next round after
// — whether or not the shard is held meanwhile. The budget stops every node on sweep
// MaxTicks+1, held or not, and a node that rejoins later stays stopped.
func TestShardCrashPlanOnSchedule(t *testing.T) {
	const at, recoverAt, budget = 3, 6, 7
	for _, held := range []bool{false, true} {
		name := map[bool]string{false: "working", true: "held"}[held]
		t.Run(name, func(t *testing.T) {
			g := graph.Path(3, 1)
			tr := NewChanTransport(g.N())
			defer tr.Close()
			rt := sweepRuntime(t, g, callProto{}, tr, Options{Seed: 1, Shards: 1, MaxTicks: budget,
				Crashes: map[graph.NodeID]CrashPlan{1: {At: at, RecoverAt: recoverAt}, 2: {At: budget, RecoverAt: budget + 2}}})
			if held {
				rt.cong = alwaysCongested{}
			}
			s := rt.shards[0]
			n := &s.nodes[1]
			rounds := 0
			for sweep := 1; sweep <= budget+3; sweep++ {
				s.tick()
				down := sweep >= at && sweep <= recoverAt-1
				if !held && !down && sweep != recoverAt && sweep <= budget {
					rounds++
				}
				if n.halted != down || n.crashed.Load() != down {
					t.Fatalf("sweep %d: halted=%v crashed=%v, want %v", sweep, n.halted, n.crashed.Load(), down)
				}
				if got := n.recovered.Load(); got != (sweep >= recoverAt) {
					t.Fatalf("sweep %d: recovered=%v", sweep, got)
				}
				if n.tick != rounds {
					t.Fatalf("sweep %d: node took %d rounds, want %d", sweep, n.tick, rounds)
				}
				for i := range s.nodes {
					if got := s.nodes[i].exhausted.Load(); got != (sweep > budget) {
						t.Fatalf("sweep %d: node %d exhausted=%v with a budget of %d sweeps", sweep, i, got, budget)
					}
				}
			}
			if !s.nodes[2].recovered.Load() {
				t.Fatal("node 2 never rejoined past the budget")
			}
		})
	}
}

// leaveTap counts, per sending node, the sweeps on which it sent its
// membership leave: a sync that carries the sender's own Dead record.
type leaveTap struct {
	*ChanTransport
	mu     sync.Mutex
	sweeps map[graph.NodeID]map[int]bool
}

func newLeaveTap(n int) *leaveTap {
	return &leaveTap{ChanTransport: NewChanTransport(n), sweeps: make(map[graph.NodeID]map[int]bool)}
}

func (t *leaveTap) Send(msg Message, delay time.Duration) error {
	if pkt, ok := msg.Payload.(member.Packet); ok && msg.Kind == MsgMember && pkt.Kind == member.PktSync {
		for _, up := range pkt.Updates {
			if up.Node == int(msg.From) && up.St == member.Dead {
				t.mu.Lock()
				if t.sweeps[msg.From] == nil {
					t.sweeps[msg.From] = make(map[int]bool)
				}
				t.sweeps[msg.From][msg.SentTick] = true
				t.mu.Unlock()
			}
		}
	}
	return t.ChanTransport.Send(msg, delay)
}

func (t *leaveTap) leaves(u graph.NodeID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sweeps[u])
}

// leaveConfig is a detector that sends nothing on its own once bootstrapped
// (no probes within a test, no periodic syncs), so every sync carrying its
// sender's Dead record is a leave.
func leaveConfig(n int) *MembershipConfig {
	seeds := make([]graph.NodeID, n)
	for i := range seeds {
		seeds[i] = graph.NodeID(i)
	}
	return &MembershipConfig{Seeds: seeds, ProbeInterval: 1 << 20, SyncInterval: -1}
}

// TestShardLeavesOnce: once the run is leaving, every node up announces its
// leave on the next sweep and never again; a node down at that sweep
// announces once it has rejoined.
func TestShardLeavesOnce(t *testing.T) {
	g := graph.Clique(4, 1)
	tr := newLeaveTap(g.N())
	defer tr.Close()
	rt := sweepRuntime(t, g, callProto{}, tr, Options{Seed: 1, Shards: 1, Membership: leaveConfig(g.N()),
		Crashes: map[graph.NodeID]CrashPlan{1: {At: 2, RecoverAt: 5}}})
	s := rt.shards[0]
	for sweep := 1; sweep <= 3; sweep++ {
		s.tick()
	}
	rt.leaving.Store(true)
	for sweep := 4; sweep <= 9; sweep++ {
		s.tick()
		for u := graph.NodeID(0); u < g.N(); u++ {
			want := 1
			if u == 1 && sweep < 6 {
				want = 0 // down through sweep 5, leaves on its first sweep up
			}
			if got := tr.leaves(u); got != want {
				t.Fatalf("sweep %d: node %d left on %d sweeps, want %d", sweep, u, got, want)
			}
		}
	}
}

// TestShardInterruptLeavesOnce: an interrupted run sends each live node's
// leave exactly once, through the grace window and the shards' last sweep.
func TestShardInterruptLeavesOnce(t *testing.T) {
	g := graph.Clique(6, 1)
	tr := newLeaveTap(g.N())
	defer tr.Close()
	interrupt := make(chan struct{})
	time.AfterFunc(30*time.Millisecond, func() { close(interrupt) })
	res, err := Run(g, slowProto{source: 0, minTick: 1 << 30}, tr, Options{
		Seed: 3, Tick: testTick, DrainTicks: 4, Shards: 2, Interrupt: interrupt,
		Membership: leaveConfig(g.N()),
	})
	if err != nil || !res.Interrupted {
		t.Fatalf("interrupted=%v err=%v", res.Interrupted, err)
	}
	for u := graph.NodeID(0); u < g.N(); u++ {
		if got := tr.leaves(u); got != 1 {
			t.Errorf("node %d left on %d sweeps, want 1", u, got)
		}
	}
}
