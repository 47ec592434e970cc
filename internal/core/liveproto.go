package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"gossip/internal/bitset"
	"gossip/internal/graph"
	"gossip/internal/live"
	"gossip/internal/sim"
)

// This file adapts the protocol state machines to the live wall-clock
// runtime: live.Protocol descriptors (handler factory + local completion
// goal) and the wire codecs the stream transports need to ship their
// payloads between processes. The handlers themselves are untouched — the
// same state machines run under both engines.

var (
	_ live.WirePayload = bitPayload{}
	_ live.WirePayload = rumorPayload{}
)

func init() {
	live.RegisterPayload(bitPayload{}.WireType(), decodeBit)
	live.RegisterPayload(rumorPayload{}.WireType(), decodeRumors)
}

// WireType implements live.WirePayload.
func (bitPayload) WireType() string { return "core.bit" }

// AppendWire implements live.WirePayload. bitPayload is by far the hottest
// payload (every push-pull exchange carries two), so it crosses the wire as
// one byte: ASCII '0' or '1'.
func (p bitPayload) AppendWire(dst []byte) []byte {
	if p.informed {
		return append(dst, '1')
	}
	return append(dst, '0')
}

// decodeBit parses a bit payload: '0' or '1', nothing else.
func decodeBit(data []byte) (sim.Payload, error) {
	if len(data) == 1 && (data[0] == '0' || data[0] == '1') {
		return bitPayload{informed: data[0] == '1'}, nil
	}
	return nil, fmt.Errorf("core: malformed bit payload %q", data)
}

// maxWireRumors bounds the capacity a decoded rumor set may claim: the
// member count of a full set whose one-byte gaps fill a 4 MiB frame body,
// the live wire's limit. A forged capacity costs the receiver at most a
// 512 KiB bitset, never an arbitrary allocation.
const maxWireRumors = 1 << 22

// WireType implements live.WirePayload.
func (rumorPayload) WireType() string { return "core.rumors" }

// AppendWire implements live.WirePayload. A rumor set (the knowledge
// snapshot RR Broadcast and EID ship) crosses the wire as uvarints: its
// capacity, its member count, then each member as its gap from the previous
// one minus one (the first member's gap counts from -1). A gap is at most its
// member and a uvarint is never longer than the decimal digits it replaces,
// so this is never longer than a JSON member list.
func (p rumorPayload) AppendWire(dst []byte) []byte {
	if p.set == nil {
		return append(dst, 0, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(p.set.Cap()))
	dst = binary.AppendUvarint(dst, uint64(p.set.Count()))
	prev := -1
	p.set.ForEach(func(i int) bool {
		dst = binary.AppendUvarint(dst, uint64(i-prev-1))
		prev = i
		return true
	})
	return dst
}

// decodeRumors parses a rumor payload, rejecting a capacity past
// maxWireRumors, a member count the bytes cannot hold, a member past the
// capacity and trailing bytes.
func decodeRumors(data []byte) (sim.Payload, error) {
	bad := func(format string, args ...any) (sim.Payload, error) {
		return nil, fmt.Errorf("core: rumor payload: "+format, args...)
	}
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return bad("truncated capacity")
	}
	if n > maxWireRumors {
		return bad("capacity %d exceeds %d", n, maxWireRumors)
	}
	data = data[k:]
	count, k := binary.Uvarint(data)
	data = data[max(k, 0):]
	if k <= 0 || count > n || count > uint64(len(data)) { // a gap costs >= 1 byte
		return bad("member count does not fit capacity %d and %d bytes", n, len(data))
	}
	set := bitset.New(int(n))
	prev := -1
	for ; count > 0; count-- {
		gap, k := binary.Uvarint(data)
		if k <= 0 {
			return bad("truncated member list")
		}
		if gap >= n-uint64(prev+1) {
			return bad("member past capacity %d", n)
		}
		prev += 1 + int(gap)
		set.Add(prev)
		data = data[k:]
	}
	if len(data) > 0 {
		return bad("%d trailing bytes", len(data))
	}
	return rumorPayload{set: set}, nil
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
	plan *rrPlan
	n    int

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
	return p.plan.proc(u, st)
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
	plan, err := newRRPlan(g, k, spannerParam, nHint, seed)
	if err != nil {
		return nil, err
	}
	return &rrLiveProto{
		plan:   plan,
		n:      g.N(),
		states: make(map[graph.NodeID]*eidState, g.N()),
	}, nil
}
