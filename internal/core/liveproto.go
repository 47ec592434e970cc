package core

import (
	"encoding/json"
	"fmt"
	"sync"

	"gossip/internal/bitset"
	"gossip/internal/graph"
	"gossip/internal/live"
	"gossip/internal/sim"
	"gossip/internal/spanner"
)

// This file adapts the protocol state machines to the live wall-clock
// runtime: live.Protocol descriptors (handler factory + local completion
// goal) and the wire codecs the TCP transport needs to ship their payloads
// between processes. The handlers themselves are untouched — the same state
// machines run under both engines.

// Preallocated one-byte bit-payload encodings: encoders return them by
// reference, so the hot path allocates nothing. The transport treats
// payload bytes as read-only (see live.DecodeBit).
var (
	bitFalse = []byte{'0'}
	bitTrue  = []byte{'1'}
)

func init() {
	// bitPayload crosses the wire as a single byte. It is by far the
	// hottest payload (every push-pull exchange carries two), so it skips
	// the JSON machinery entirely.
	live.RegisterPayload("core.bit",
		func(p sim.Payload) ([]byte, bool) {
			b, ok := p.(bitPayload)
			if !ok {
				return nil, false
			}
			if b.informed {
				return bitTrue, true
			}
			return bitFalse, true
		},
		func(data []byte) (sim.Payload, error) {
			informed, err := live.DecodeBit(data)
			if err != nil {
				return nil, fmt.Errorf("core: bit payload: %w", err)
			}
			return bitPayload{informed: informed}, nil
		})

	// rumorPayload (the knowledge snapshot RR Broadcast and EID ship)
	// crosses the wire as capacity + member list.
	type wireRumors struct {
		N   int   `json:"n"`
		Set []int `json:"s"`
	}
	live.RegisterPayload("core.rumors",
		func(p sim.Payload) ([]byte, bool) {
			rp, ok := p.(rumorPayload)
			if !ok || rp.set == nil {
				return nil, false
			}
			data, err := json.Marshal(wireRumors{N: rp.set.Cap(), Set: rp.set.Slice()})
			if err != nil {
				return nil, false
			}
			return data, true
		},
		func(data []byte) (sim.Payload, error) {
			var w wireRumors
			if err := json.Unmarshal(data, &w); err != nil {
				return nil, fmt.Errorf("core: rumor payload: %w", err)
			}
			set := bitset.New(w.N)
			for _, i := range w.Set {
				if i < 0 || i >= w.N {
					return nil, fmt.Errorf("core: rumor payload member %d out of range [0,%d)", i, w.N)
				}
				set.Add(i)
			}
			return rumorPayload{set: set}, nil
		})
}

// broadcastProto is the live.Protocol shape shared by the single-source
// broadcast protocols: completion is "this node is informed".
type broadcastProto struct {
	name       string
	known      bool
	newHandler func(u graph.NodeID) sim.Handler
	informed   func(h sim.Handler) bool
}

var _ live.Protocol = (*broadcastProto)(nil)

func (p *broadcastProto) Name() string                          { return p.name }
func (p *broadcastProto) KnownLatencies() bool                  { return p.known }
func (p *broadcastProto) NewHandler(u graph.NodeID) sim.Handler { return p.newHandler(u) }
func (p *broadcastProto) LocalDone(_ graph.NodeID, h sim.Handler) bool {
	return p.informed(h)
}

// PushPullLive returns the live-runtime descriptor for the random phone call
// broadcast from source (Theorem 12) — the same pushPullNode state machine
// PushPull drives in the simulator.
func PushPullLive(source graph.NodeID, mode PushPullMode) live.Protocol {
	return &broadcastProto{
		name:  "pushpull",
		known: mode == ModeLatencyBiased,
		newHandler: func(u graph.NodeID) sim.Handler {
			return &pushPullNode{informed: u == source, informer: -1, mode: mode}
		},
		informed: func(h sim.Handler) bool { return h.(*pushPullNode).informed },
	}
}

// FloodLive returns the live-runtime descriptor for deterministic flooding
// from source.
func FloodLive(source graph.NodeID) live.Protocol {
	return &broadcastProto{
		name: "flood",
		newHandler: func(u graph.NodeID) sim.Handler {
			return &floodNode{informed: u == source}
		},
		informed: func(h sim.Handler) bool { return h.(*floodNode).informed },
	}
}

// rrLiveProto is the live descriptor for RR Broadcast: the spanner and its
// fixed schedule are built once up front (they are global knowledge, as in
// the round engine), then every node runs the same runRR coroutine the
// simulator drives. Local completion is the all-to-all goal — the node holds
// every rumor. The states map is written by NewHandler (run setup and
// crash-recovery rejoins) and read by LocalDone from node goroutines, hence
// the lock; a descriptor serves one run at a time.
type rrLiveProto struct {
	out    [][]int // per-node spanner out-edges as neighbor indices
	k      int
	rounds int
	n      int

	mu     sync.Mutex
	states map[graph.NodeID]*eidState
}

var _ live.Protocol = (*rrLiveProto)(nil)

func (p *rrLiveProto) Name() string         { return "rrbroadcast" }
func (p *rrLiveProto) KnownLatencies() bool { return true }

func (p *rrLiveProto) NewHandler(u graph.NodeID) sim.Handler {
	st := &eidState{rumors: newRumorKnowledge(p.n, u), terminatedAt: -1}
	p.mu.Lock()
	p.states[u] = st
	p.mu.Unlock()
	containers := st.containers
	out := p.out[u]
	k, rounds := p.k, p.rounds
	proc := sim.NewProc(func(pr *sim.Proc) {
		runRR(pr, st.rumors, out, knownLatencies(pr), k, rounds)
	})
	proc.HandleRequests(knowledgeResponder(containers))
	proc.HandleResponses(knowledgeResponses(containers))
	return proc
}

func (p *rrLiveProto) LocalDone(u graph.NodeID, _ sim.Handler) bool {
	p.mu.Lock()
	st := p.states[u]
	p.mu.Unlock()
	return st != nil && st.rumors.know.Full()
}

// RRBroadcastLive returns the live-runtime descriptor for RR Broadcast
// (Algorithm 2) over an oriented Baswana–Sen spanner of G_k — the same
// fixed-schedule state machine RRBroadcast drives in the simulator. Because
// the schedule routes through specific oriented edges for a fixed number of
// rounds, it is the protocol that fails closed under partitions and crashes,
// the contrast the paper's conclusion draws against push-pull. spannerParam
// overrides the Baswana–Sen parameter (0 = ⌈log₂ n̂⌉); seed must match the
// run's seed so every process builds the identical spanner.
func RRBroadcastLive(g *graph.Graph, k, spannerParam, nHint int, seed uint64) (live.Protocol, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: RR broadcast needs k >= 1, got %d", k)
	}
	nHat := g.N()
	if nHint > nHat {
		nHat = nHint
	}
	ks := spannerParam
	if ks <= 0 {
		ks = spannerK(nHat)
	}
	sub := g.Subgraph(k)
	sp, err := spanner.Build(sub, ks, nHat, seed)
	if err != nil {
		return nil, fmt.Errorf("RR broadcast spanner: %w", err)
	}
	kRR := (2*ks - 1) * k
	out := make([][]int, g.N())
	for u := 0; u < g.N(); u++ {
		for _, oe := range sp.Out[u] {
			for idx, he := range g.Neighbors(u) {
				if he.To == oe.To {
					out[u] = append(out[u], idx)
					break
				}
			}
		}
	}
	return &rrLiveProto{
		out:    out,
		k:      k,
		rounds: kRR*sp.MaxOutDegree() + kRR,
		n:      g.N(),
		states: make(map[graph.NodeID]*eidState, g.N()),
	}, nil
}
