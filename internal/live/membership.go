package live

import (
	"fmt"

	"gossip/internal/graph"
	"gossip/internal/member"
	"gossip/internal/sim"
)

// This file glues the SWIM membership layer (internal/member) into the live
// runtime. With Options.Membership set, every hosted node runs a failure
// detector alongside its protocol handler: probes, ping-req relays, and
// anti-entropy syncs travel as MsgMember messages over the run's ordinary
// transport — the same binary wire frames, fault injector, and latency
// machinery as protocol traffic — with membership deltas piggybacked on every
// packet under the detector's per-frame budget. Nodes bootstrap from a seed
// peer list instead of trusting the static roster, and the runtime's
// completion check counts only members currently believed alive.

// MemberPayloadType is the interned wire name of membership packets: the
// first frame on a connection carrying one pays for the name, every later
// frame references it with a single byte.
const MemberPayloadType = "member.packet"

// PeerStatusSink is implemented by transports that react to membership
// verdicts: the runtime forwards every local detector's view transitions to
// the transport, so sends toward an address whose every node the cluster
// declared dead are refused (membership packets excepted), and a refuted or
// recovered node's address takes sends again at once.
type PeerStatusSink interface {
	PeerDown(u graph.NodeID)
	PeerUp(u graph.NodeID)
}

func init() {
	RegisterPayload(MemberPayloadType,
		func(p sim.Payload) ([]byte, bool) {
			pkt, ok := p.(member.Packet)
			if !ok {
				return nil, false
			}
			return pkt.AppendBinary(nil), true
		},
		func(data []byte) (sim.Payload, error) {
			// DecodePacket builds fresh slices, so nothing aliases the
			// transport's reused frame buffer.
			pkt, err := member.DecodePacket(data)
			if err != nil {
				return nil, err
			}
			return pkt, nil
		})
}

// MembershipConfig enables SWIM-style dynamic membership for a live run.
// The zero value of every field takes the member package's default; Seeds
// defaults to {0} (the single-seed join topology).
type MembershipConfig struct {
	// Seeds is the bootstrap peer list: every node starts believing only
	// itself and these peers exist and full-syncs with them on its first
	// tick. Nil means node 0 is the sole seed.
	Seeds []graph.NodeID
	// ProbeInterval is the number of ticks between a node's probes.
	ProbeInterval int
	// ProbeTimeout is how many ticks a direct ping may go unanswered before
	// ping-req relays fire.
	ProbeTimeout int
	// SuspicionMult scales the suspicion timeout (see member.Config).
	SuspicionMult int
	// IndirectK is the number of ping-req relays per escalation.
	IndirectK int
	// MaxPiggyback bounds the membership deltas piggybacked per packet.
	MaxPiggyback int
	// RetransmitMult scales each delta's rebroadcast budget.
	RetransmitMult int
	// SyncInterval is the anti-entropy period (negative disables).
	SyncInterval int
	// Record keeps per-node membership event logs in the Result.
	Record bool
}

// validate rejects configurations the member package would silently clamp.
func (mc *MembershipConfig) validate(n int) error {
	for _, s := range mc.Seeds {
		if s < 0 || s >= n {
			return fmt.Errorf("live: membership seed node %d out of range [0,%d)", s, n)
		}
	}
	return nil
}

// memberConfig lowers the runtime-facing config to the member package's.
func (mc *MembershipConfig) memberConfig(seed uint64, n int, record bool) member.Config {
	return member.Config{
		Seed:           seed,
		N:              n,
		ProbeInterval:  mc.ProbeInterval,
		ProbeTimeout:   mc.ProbeTimeout,
		SuspicionMult:  mc.SuspicionMult,
		IndirectK:      mc.IndirectK,
		MaxPiggyback:   mc.MaxPiggyback,
		RetransmitMult: mc.RetransmitMult,
		SyncInterval:   mc.SyncInterval,
		Record:         record || mc.Record,
	}.Defaulted()
}

// seedsFor returns the member-package seed list for node u: every configured
// seed but u itself. The seeds themselves bootstrap from the other seeds.
func (mc *MembershipConfig) seedsFor(u graph.NodeID) []int {
	seeds := mc.Seeds
	if seeds == nil {
		seeds = []graph.NodeID{0}
	}
	out := make([]int, 0, len(seeds))
	for _, s := range seeds {
		if s != u {
			out = append(out, int(s))
		}
	}
	return out
}

// newMember builds node u's failure detector for this run. When the
// transport reacts to membership verdicts (PeerStatusSink), every state
// transition this detector applies is forwarded: a Dead verdict counts the
// peer toward refusing its address (what is already queued or written stays
// with the connection), an Alive one (refutation, rejoin) re-admits it. The
// forward is idempotent on the transport side, so many local observers
// sending the same verdict are harmless.
func (rt *Runtime) newMember(u graph.NodeID) *member.Node {
	cfg := rt.memberCfg
	if sink := rt.peerSink; sink != nil {
		self := int(u)
		cfg.OnChange = func(v int, st member.State, inc uint32) {
			if v == self {
				return // our own record is not a peer verdict
			}
			switch st {
			case member.Dead:
				sink.PeerDown(graph.NodeID(v))
			case member.Alive:
				sink.PeerUp(graph.NodeID(v))
			}
		}
	}
	return member.New(int(u), rt.opts.Membership.seedsFor(u), cfg)
}

// believedDead reports whether every running local observer's view of v is
// Dead — the membership layer's verdict that v is no longer a member. With
// no running observers it reports false (no one is left to testify).
func (rt *Runtime) believedDead(v graph.NodeID) bool {
	observers := 0
	for _, o := range rt.local {
		if o.id == v || o.crashed.Load() {
			continue
		}
		m := o.mem.Load()
		if m == nil {
			continue
		}
		observers++
		st, _, known := m.StateOf(int(v))
		if !known || st != member.Dead {
			return false
		}
	}
	return observers > 0
}

// memberTick drives the node's failure detector one wall tick and ships the
// resulting probes/syncs. Runs even while the runtime quiesces — the
// detector must keep answering and probing for as long as the process lives.
func (n *node) memberTick() {
	m := n.mem.Load()
	if m == nil {
		return
	}
	n.sendMember(m.Tick(n.wall))
}

// sendMember ships membership envelopes as MsgMember messages. Each packet
// gets a unique synthetic (negative) edge ID: membership traffic flows
// between arbitrary node pairs, not graph edges, and the fault plan keys its
// decisions on message identity (EdgeID, Kind, From, SentTick), so the unique
// ID gives distinct packets sent in the same tick distinct fault draws.
func (n *node) sendMember(envs []member.Envelope) {
	for _, env := range envs {
		n.memEdge--
		msg := Message{
			Kind:     MsgMember,
			From:     n.id,
			To:       graph.NodeID(env.To),
			EdgeID:   n.memEdge,
			Latency:  1,
			SentTick: n.wall,
			Payload:  env.Pkt,
		}
		n.m.MemberPackets++
		n.m.MemberBytes += env.Pkt.SizeBytes()
		// Best effort, like every gossip packet: a loss surfaces as a missed
		// ack and the detector escalates on its own.
		_ = n.rt.tr.Send(msg, n.rt.opts.Tick)
	}
}

// handleMember delivers one incoming membership packet to the detector and
// ships its replies.
func (n *node) handleMember(msg Message) {
	m := n.mem.Load()
	if m == nil {
		return
	}
	pkt, ok := msg.Payload.(member.Packet)
	if !ok {
		return // misrouted or foreign payload: drop, as with corrupt frames
	}
	n.sendMember(m.Receive(pkt, n.wall))
}
