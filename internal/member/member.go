// Package member is the SWIM-style dynamic membership and failure-detection
// layer: every node keeps a local view of which peers are alive, suspected,
// or dead, maintained purely by gossip — periodic probes, indirect ping-reqs
// through relays, suspicion timeouts, and piggybacked membership deltas on
// the traffic the detector sends anyway. No node is *told* who crashed; the
// cluster detects it.
//
// The protocol is the classic SWIM shape (Das, Gupta, Motivala 2002) with
// the suspicion refinement:
//
//   - every ProbeInterval ticks a node pings the next member of a randomly
//     shuffled round-robin order; an unanswered ping escalates to ping-req
//     relays, and an unanswered interval marks the target *suspected*;
//   - a suspicion that survives SuspicionTicks() becomes a *dead*
//     declaration; both transitions are disseminated as deltas;
//   - every delta carries the subject's incarnation number. A node that
//     hears itself suspected or declared dead refutes by incrementing its
//     own incarnation and gossiping a fresher alive record — alive{i}
//     overrides suspect{j} and dead{j} exactly when i > j, so a false
//     positive heals and a recovered process re-admits itself;
//   - deltas piggyback on ping/ack/ping-req packets, at most MaxPiggyback
//     per packet, each delta rebroadcast a logarithmic number of times —
//     dissemination costs no messages of its own;
//   - join and budget-expiry gaps are repaired by anti-entropy: a joining
//     node full-syncs with its seed peers, and every SyncInterval ticks each
//     node full-syncs with one random live member.
//
// The package is deterministic by construction: all timing is integer ticks
// supplied by the caller, and all randomness (probe order shuffles, relay
// and sync-partner choices) draws from rng streams seeded by (Config.Seed,
// node ID). Two runs that deliver the same packets at the same ticks produce
// byte-identical membership event logs — the property the live runtime's
// chaos tests and the churn experiments assert.
package member

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"gossip/internal/rng"
)

// State is a member's health in a local view. The zero value is Alive so a
// bare Update{Node: v} reads as "v joined".
type State uint8

const (
	// Alive members are believed up (confirmed by probes or gossip).
	Alive State = iota
	// Suspect members missed a probe interval and are on the suspicion
	// clock; they count as members until the clock expires.
	Suspect
	// Dead members were declared failed. Only an alive record with a higher
	// incarnation — a refutation or a rejoin — revives them.
	Dead
)

// String returns the state's lowercase name.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Update is one membership delta: node v is in the given state at the given
// incarnation. Updates are what piggybacks on packets and what Merge applies
// under the SWIM precedence rules.
type Update struct {
	Node int
	St   State
	Inc  uint32
}

// Event is one local view transition, the unit of the membership event log:
// at Tick, the observer started believing Node is in state St at incarnation
// Inc. Same seed and same packet schedule imply an identical event sequence.
type Event struct {
	Tick int
	Node int
	St   State
	Inc  uint32
}

// String formats the event in the stable log form.
func (e Event) String() string {
	return fmt.Sprintf("t=%d node=%d %s inc=%d", e.Tick, e.Node, e.St, e.Inc)
}

// Config tunes a membership node. The zero value is usable: Defaulted()
// fills every field the caller leaves zero.
type Config struct {
	// Seed drives the node's probe-order shuffles and relay choices. All
	// nodes of one cluster share the seed; per-node streams are derived
	// from (Seed, node ID).
	Seed uint64
	// N is the ID-space upper bound (node IDs are 0..N-1).
	N int
	// ProbeInterval is the number of ticks between a node's probes
	// (default DefaultProbeInterval).
	ProbeInterval int
	// ProbeTimeout is how many ticks a direct ping may go unanswered
	// before ping-req relays are engaged (default ProbeInterval/2, min 1).
	// It must leave room inside the interval for the indirect round trip.
	ProbeTimeout int
	// SuspicionMult scales the suspicion timeout:
	// SuspicionTicks = SuspicionMult · ProbeInterval · ⌈log₂ N⌉
	// (default DefaultSuspicionMult).
	SuspicionMult int
	// IndirectK is the number of ping-req relays per escalation (default
	// DefaultIndirectK).
	IndirectK int
	// MaxPiggyback bounds the membership deltas carried per packet — the
	// piggyback budget per frame (default DefaultMaxPiggyback).
	MaxPiggyback int
	// RetransmitMult scales each delta's rebroadcast budget:
	// budget = RetransmitMult · ⌈log₂ N⌉ piggybacks (default
	// DefaultRetransmitMult).
	RetransmitMult int
	// SyncInterval is the anti-entropy period: every SyncInterval ticks a
	// node exchanges full tables with one random live member (default
	// 8·ProbeInterval; negative disables periodic sync).
	SyncInterval int
	// Record keeps the event log (Events/EventLog). Tests and experiments
	// set it; long-lived daemons leave it off to bound memory.
	Record bool
	// OnChange, when non-nil, is invoked on every local view transition —
	// the same transitions the event log records, including the ones Record
	// leaves unlogged. The live runtime uses it to feed membership verdicts
	// to the transport, which refuses sends toward dead peers. It is called
	// with the node's lock held: it must be fast and must not call back into
	// the Node.
	OnChange func(v int, st State, inc uint32)
}

// Membership defaults.
const (
	DefaultProbeInterval  = 4
	DefaultSuspicionMult  = 3
	DefaultIndirectK      = 2
	DefaultMaxPiggyback   = 6
	DefaultRetransmitMult = 3
)

// Defaulted returns the config with every zero field replaced by its
// default.
func (c Config) Defaulted() Config {
	if c.N < 1 {
		c.N = 1
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval / 2
		if c.ProbeTimeout < 1 {
			c.ProbeTimeout = 1
		}
	}
	if c.SuspicionMult <= 0 {
		c.SuspicionMult = DefaultSuspicionMult
	}
	if c.IndirectK <= 0 {
		c.IndirectK = DefaultIndirectK
	}
	if c.MaxPiggyback <= 0 {
		c.MaxPiggyback = DefaultMaxPiggyback
	}
	if c.RetransmitMult <= 0 {
		c.RetransmitMult = DefaultRetransmitMult
	}
	if c.SyncInterval == 0 {
		c.SyncInterval = 8 * c.ProbeInterval
	}
	return c
}

// ceilLog2 returns ⌈log₂ n⌉ for n >= 1, and 1 for n <= 2 (so budgets and
// timeouts never degenerate to zero in tiny clusters).
func ceilLog2(n int) int {
	l, p := 0, 1
	for p < n {
		p <<= 1
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}

// SuspicionTicks returns the suspicion timeout in ticks: how long a suspect
// may linger before the local view declares it dead. The churn tests assert
// detection latency against DetectionBound, which is built from this.
func (c Config) SuspicionTicks() int {
	c = c.Defaulted()
	return c.SuspicionMult * c.ProbeInterval * ceilLog2(c.N)
}

// DetectionBound returns a worst-case bound, in ticks, for every one of m
// live members to declare a crashed node dead: one full round-robin cycle
// for the slowest prober to reach the target (m·ProbeInterval), the
// suspicion timeout, and a dissemination+latency slack of one more
// logarithmic epoch. The deterministic chaos tests assert measured
// detection latency stays under this.
func (c Config) DetectionBound(m int) int {
	c = c.Defaulted()
	if m < 1 {
		m = 1
	}
	cycle := m * c.ProbeInterval
	slack := (c.SuspicionMult + c.RetransmitMult) * c.ProbeInterval * ceilLog2(m)
	return cycle + c.SuspicionTicks() + slack
}

// entry is one row of the local membership table.
type entry struct {
	known       bool
	st          State
	inc         uint32
	suspectedAt int // tick the local view marked it Suspect
}

// queued is one delta awaiting piggyback, with its rebroadcast budget.
type queued struct {
	up   Update
	left int
}

// Node is one member's failure detector and membership table. All methods
// are safe for concurrent use: the owner drives Tick/Receive from its own
// goroutine while observers (the live runtime's watcher, debug dumps) read
// StateOf/Snapshot.
type Node struct {
	mu  sync.Mutex
	cfg Config
	id  int
	rng *rand.Rand

	now     int
	inc     uint32 // own incarnation
	entries []entry

	probeOrder []int // shuffled round-robin probe order
	probeIdx   int
	seq        uint32
	target     int // outstanding probe target (-1 = none)
	targetSeq  uint32
	sentAt     int
	indirected bool
	acked      bool

	queue    []queued
	events   []Event
	joinSync []int // seeds to full-sync with on the first tick
	left     bool  // gracefully departed: no probing, no refutation
}

// memberSeedSalt separates the membership streams from the protocol streams
// that already use rng.Stream(seed, node).
const memberSeedSalt = 0x6d656d6272 // "membr"

// New builds the membership node for id, bootstrapped from the given seed
// peers (it believes only itself and the seeds exist until gossip teaches it
// more). A node restarted after a crash calls New again: state is lost, the
// incarnation restarts at zero, and the refutation rule re-admits it.
func New(id int, seeds []int, cfg Config) *Node {
	cfg = cfg.Defaulted()
	nd := &Node{
		cfg:     cfg,
		id:      id,
		rng:     rng.Stream(rng.Hash(cfg.Seed, memberSeedSalt), uint64(id)),
		entries: make([]entry, cfg.N),
		target:  -1,
	}
	if id >= 0 && id < cfg.N {
		nd.entries[id] = entry{known: true, st: Alive}
	}
	for _, s := range seeds {
		if s == id || s < 0 || s >= cfg.N {
			continue
		}
		if !nd.entries[s].known {
			nd.joinSync = append(nd.joinSync, s)
		}
		nd.entries[s] = entry{known: true, st: Alive}
	}
	// Announce ourselves: the join delta rides our first probes and syncs.
	nd.enqueueLocked(Update{Node: id, St: Alive, Inc: 0})
	return nd
}

// ID returns the node's own ID.
func (nd *Node) ID() int { return nd.id }

// Incarnation returns the node's own incarnation number.
func (nd *Node) Incarnation() uint32 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.inc
}

// StateOf returns the local view of v. known is false while v has never been
// heard of.
func (nd *Node) StateOf(v int) (st State, inc uint32, known bool) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if v < 0 || v >= len(nd.entries) || !nd.entries[v].known {
		return 0, 0, false
	}
	e := nd.entries[v]
	return e.st, e.inc, true
}

// Counts returns the number of known members in each state (self included).
func (nd *Node) Counts() (alive, suspect, dead int) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for i := range nd.entries {
		if !nd.entries[i].known {
			continue
		}
		switch nd.entries[i].st {
		case Alive:
			alive++
		case Suspect:
			suspect++
		case Dead:
			dead++
		}
	}
	return
}

// Snapshot returns the full table as updates, sorted by node ID — the
// payload of a sync packet and the shape debug dumps print.
func (nd *Node) Snapshot() []Update {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.snapshotLocked()
}

func (nd *Node) snapshotLocked() []Update {
	ups := make([]Update, 0, len(nd.entries))
	for v := range nd.entries {
		if !nd.entries[v].known {
			continue
		}
		e := nd.entries[v]
		ups = append(ups, Update{Node: v, St: e.st, Inc: e.inc})
	}
	return ups
}

// Events returns a copy of the event log (empty unless Config.Record).
func (nd *Node) Events() []Event {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return append([]Event(nil), nd.events...)
}

// EventLog renders the event log one event per line — the byte-comparable
// form the determinism tests diff.
func (nd *Node) EventLog() string {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	var b strings.Builder
	for _, e := range nd.events {
		fmt.Fprintf(&b, "%s\n", e)
	}
	return b.String()
}

// record notes a view transition. Events are the determinism surface, so
// they are appended only under Record; the OnChange hook always fires.
func (nd *Node) record(v int, st State, inc uint32) {
	if nd.cfg.Record {
		nd.events = append(nd.events, Event{Tick: nd.now, Node: v, St: st, Inc: inc})
	}
	if nd.cfg.OnChange != nil {
		nd.cfg.OnChange(v, st, inc)
	}
}

// enqueueLocked queues a delta for piggyback with a fresh rebroadcast
// budget, replacing any staler queued delta about the same node.
func (nd *Node) enqueueLocked(up Update) {
	budget := nd.cfg.RetransmitMult * ceilLog2(nd.memberCountLocked())
	for i := range nd.queue {
		if nd.queue[i].up.Node == up.Node {
			nd.queue[i] = queued{up: up, left: budget}
			return
		}
	}
	nd.queue = append(nd.queue, queued{up: up, left: budget})
}

// memberCountLocked counts known non-dead members (min 2 so budgets never
// degenerate).
func (nd *Node) memberCountLocked() int {
	n := 0
	for i := range nd.entries {
		if nd.entries[i].known && nd.entries[i].st != Dead {
			n++
		}
	}
	if n < 2 {
		n = 2
	}
	return n
}

// piggybackLocked selects up to MaxPiggyback queued deltas — freshest (most
// budget) first, ties by node ID for determinism — decrements their budgets,
// and drops the exhausted ones.
func (nd *Node) piggybackLocked() []Update {
	if len(nd.queue) == 0 {
		return nil
	}
	sort.SliceStable(nd.queue, func(i, j int) bool {
		if nd.queue[i].left != nd.queue[j].left {
			return nd.queue[i].left > nd.queue[j].left
		}
		return nd.queue[i].up.Node < nd.queue[j].up.Node
	})
	k := nd.cfg.MaxPiggyback
	if k > len(nd.queue) {
		k = len(nd.queue)
	}
	ups := make([]Update, k)
	for i := 0; i < k; i++ {
		ups[i] = nd.queue[i].up
		nd.queue[i].left--
	}
	live := nd.queue[:0]
	for _, q := range nd.queue {
		if q.left > 0 {
			live = append(live, q)
		}
	}
	nd.queue = live
	return ups
}

// applyLocked merges one delta under the SWIM precedence rules and reports
// whether the local view changed. Refutation: a suspect/dead claim about
// ourselves at our own (or higher) incarnation bumps our incarnation and
// gossips a fresher alive record instead of being believed.
func (nd *Node) applyLocked(up Update) bool {
	if up.Node < 0 || up.Node >= len(nd.entries) {
		return false
	}
	if up.Node == nd.id {
		if nd.left {
			// A departed node does not refute: the dead record it broadcast
			// on Leave is the truth, and fighting stragglers would undo it.
			return false
		}
		if up.St != Alive && up.Inc >= nd.inc {
			nd.inc = up.Inc + 1
			nd.entries[nd.id] = entry{known: true, st: Alive, inc: nd.inc}
			nd.enqueueLocked(Update{Node: nd.id, St: Alive, Inc: nd.inc})
			nd.record(nd.id, Alive, nd.inc)
			return true
		}
		return false
	}
	e := &nd.entries[up.Node]
	applies := false
	switch {
	case !e.known:
		applies = true
	case up.St == Alive:
		// A fresher incarnation overrides anything, including a dead
		// record — that is how a refutation heals a false positive and a
		// restarted process re-admits itself.
		applies = up.Inc > e.inc
	case up.St == Suspect:
		switch e.st {
		case Alive:
			applies = up.Inc >= e.inc
		case Suspect:
			applies = up.Inc > e.inc
		}
	case up.St == Dead:
		applies = e.st != Dead && up.Inc >= e.inc
	}
	if !applies {
		return false
	}
	*e = entry{known: true, st: up.St, inc: up.Inc, suspectedAt: nd.now}
	nd.enqueueLocked(up)
	nd.record(up.Node, up.St, up.Inc)
	return true
}

// learnSenderLocked admits an unknown packet sender as alive at incarnation
// zero — a joining node becomes visible from its very first probe even
// before its alive delta is merged.
func (nd *Node) learnSenderLocked(from int) {
	if from < 0 || from >= len(nd.entries) || from == nd.id || nd.entries[from].known {
		return
	}
	nd.applyLocked(Update{Node: from, St: Alive, Inc: 0})
}

// aliveMembersLocked lists the known live (alive or suspect) members other
// than self and excl, in ascending ID order.
func (nd *Node) aliveMembersLocked(excl int) []int {
	var ids []int
	for v := range nd.entries {
		if v == nd.id || v == excl {
			continue
		}
		if nd.entries[v].known && nd.entries[v].st != Dead {
			ids = append(ids, v)
		}
	}
	return ids
}

// Tick advances the detector to tick now and returns the packets to send:
// suspicion expiries, probe-timeout escalations, the interval's probe
// verdict and next ping, and the periodic anti-entropy sync. The caller
// delivers the envelopes through its transport.
func (nd *Node) Tick(now int) []Envelope {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.now = now
	if nd.left {
		return nil // departed: no probes, no syncs
	}
	var out []Envelope

	// 0. Join: full-sync with the seed peers straight away, so a fresh
	// node converges on the existing view (and hears any dead record about
	// itself to refute) without waiting out a sync period.
	if len(nd.joinSync) > 0 {
		for _, s := range nd.joinSync {
			out = append(out, Envelope{To: s, Pkt: Packet{
				Kind: PktSync, From: nd.id, Origin: nd.id,
				Updates: nd.snapshotLocked(),
			}})
		}
		nd.joinSync = nil
	}

	// 1. Suspicion clocks: a suspect that outlived the timeout is declared
	// dead and the declaration disseminated.
	timeout := nd.cfg.SuspicionTicks()
	for v := range nd.entries {
		e := &nd.entries[v]
		if v != nd.id && e.known && e.st == Suspect && now-e.suspectedAt >= timeout {
			e.st = Dead
			nd.enqueueLocked(Update{Node: v, St: Dead, Inc: e.inc})
			nd.record(v, Dead, e.inc)
		}
	}

	// 2. Direct-probe timeout: escalate to IndirectK ping-req relays.
	if nd.target >= 0 && !nd.acked && !nd.indirected && now-nd.sentAt >= nd.cfg.ProbeTimeout {
		nd.indirected = true
		relays := nd.aliveMembersLocked(nd.target)
		nd.rng.Shuffle(len(relays), func(i, j int) { relays[i], relays[j] = relays[j], relays[i] })
		k := nd.cfg.IndirectK
		if k > len(relays) {
			k = len(relays)
		}
		for _, r := range relays[:k] {
			out = append(out, Envelope{To: r, Pkt: Packet{
				Kind: PktPingReq, From: nd.id, Origin: nd.id, Subject: nd.target,
				Seq: nd.targetSeq, Updates: nd.piggybackLocked(),
			}})
		}
	}

	// 3. Probe interval boundary (staggered by ID so a cluster's probes
	// don't fire in lockstep): settle the outstanding probe, then ping the
	// next member of the shuffled round-robin order.
	if (now+nd.id)%nd.cfg.ProbeInterval == 0 {
		if nd.target >= 0 && !nd.acked {
			e := &nd.entries[nd.target]
			if e.known && e.st == Alive {
				e.st = Suspect
				e.suspectedAt = now
				nd.enqueueLocked(Update{Node: nd.target, St: Suspect, Inc: e.inc})
				nd.record(nd.target, Suspect, e.inc)
			}
		}
		nd.target = -1
		if t, ok := nd.nextProbeTargetLocked(); ok {
			nd.seq++
			nd.target, nd.targetSeq, nd.sentAt = t, nd.seq, now
			nd.indirected, nd.acked = false, false
			out = append(out, Envelope{To: t, Pkt: Packet{
				Kind: PktPing, From: nd.id, Origin: nd.id, Subject: t,
				Seq: nd.seq, Updates: nd.piggybackLocked(),
			}})
		}
	}

	// 4. Periodic anti-entropy: full-table exchange with one random live
	// member repairs anything the bounded piggyback budgets let expire.
	if nd.cfg.SyncInterval > 0 && (now+nd.id)%nd.cfg.SyncInterval == 0 {
		if peers := nd.aliveMembersLocked(-1); len(peers) > 0 {
			p := peers[nd.rng.Intn(len(peers))]
			out = append(out, Envelope{To: p, Pkt: Packet{
				Kind: PktSync, From: nd.id, Origin: nd.id,
				Updates: nd.snapshotLocked(),
			}})
		}
	}
	return out
}

// Leave gracefully departs the cluster at tick now: the node marks itself
// dead at its current incarnation and returns sync packets carrying the
// record to a logarithmic fanout of live members, so the cluster converges on
// the departure without waiting out a suspicion timeout. After Leave the
// detector is inert — Tick sends nothing and Receive answers nothing — and
// the node never refutes the dead record it just published. Idempotent: the
// second call returns nil.
func (nd *Node) Leave(now int) []Envelope {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.now = now
	if nd.left {
		return nil
	}
	nd.left = true
	nd.entries[nd.id] = entry{known: true, st: Dead, inc: nd.inc}
	nd.record(nd.id, Dead, nd.inc)
	nd.enqueueLocked(Update{Node: nd.id, St: Dead, Inc: nd.inc})
	peers := nd.aliveMembersLocked(-1)
	nd.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	fanout := 2 * ceilLog2(nd.memberCountLocked())
	if fanout > len(peers) {
		fanout = len(peers)
	}
	var out []Envelope
	snap := nd.snapshotLocked()
	for _, p := range peers[:fanout] {
		out = append(out, Envelope{To: p, Pkt: Packet{
			Kind: PktSync, From: nd.id, Origin: nd.id, Updates: snap,
		}})
	}
	return out
}

// Left reports whether the node has gracefully departed via Leave.
func (nd *Node) Left() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.left
}

// nextProbeTargetLocked pops the next live member of the round-robin order,
// reshuffling (seeded) when the order is exhausted — every member is probed
// exactly once per cycle, in an order no adversaryless schedule can bias.
func (nd *Node) nextProbeTargetLocked() (int, bool) {
	for tries := 0; tries < 2; tries++ {
		for nd.probeIdx < len(nd.probeOrder) {
			t := nd.probeOrder[nd.probeIdx]
			nd.probeIdx++
			e := nd.entries[t]
			if e.known && e.st != Dead {
				return t, true
			}
		}
		nd.probeOrder = nd.aliveMembersLocked(-1)
		nd.rng.Shuffle(len(nd.probeOrder), func(i, j int) {
			nd.probeOrder[i], nd.probeOrder[j] = nd.probeOrder[j], nd.probeOrder[i]
		})
		nd.probeIdx = 0
		if len(nd.probeOrder) == 0 {
			return 0, false
		}
	}
	return 0, false
}

// Receive processes one incoming packet at tick now and returns the
// immediate replies (ack, relayed ping, sync answer). Every packet's
// piggybacked deltas are merged first, so even a reply-less packet advances
// the view.
func (nd *Node) Receive(pkt Packet, now int) []Envelope {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.now = now
	if nd.left {
		// Still merge what we hear (harmless), but answer nothing: peers'
		// probes to a departed node must time out exactly as for a crash,
		// and our acks would only delay the cluster learning we are gone.
		for _, up := range pkt.Updates {
			nd.applyLocked(up)
		}
		return nil
	}
	nd.learnSenderLocked(pkt.From)
	for _, up := range pkt.Updates {
		nd.applyLocked(up)
	}
	// A packet from a member we believe dead means it restarted (or we were
	// wrong): requeue the dead record so our reply carries it — the sender
	// refutes with a higher incarnation and re-admits itself.
	if f := pkt.From; f >= 0 && f < len(nd.entries) && f != nd.id &&
		nd.entries[f].known && nd.entries[f].st == Dead {
		nd.enqueueLocked(Update{Node: f, St: Dead, Inc: nd.entries[f].inc})
	}
	switch pkt.Kind {
	case PktPing:
		// Answer to the origin: a relayed ping's ack flows straight back
		// to the suspecting node.
		return []Envelope{{To: pkt.Origin, Pkt: Packet{
			Kind: PktAck, From: nd.id, Origin: nd.id, Subject: nd.id,
			Seq: pkt.Seq, Updates: nd.piggybackLocked(),
		}}}
	case PktAck:
		if nd.target >= 0 && pkt.Subject == nd.target && pkt.Seq == nd.targetSeq {
			nd.acked = true
		}
	case PktPingReq:
		nd.learnSenderLocked(pkt.Subject)
		return []Envelope{{To: pkt.Subject, Pkt: Packet{
			Kind: PktPing, From: nd.id, Origin: pkt.Origin, Subject: pkt.Subject,
			Seq: pkt.Seq, Updates: nd.piggybackLocked(),
		}}}
	case PktSync:
		return []Envelope{{To: pkt.From, Pkt: Packet{
			Kind: PktSyncAck, From: nd.id, Origin: nd.id,
			Updates: nd.snapshotLocked(),
		}}}
	case PktSyncAck:
		// Updates already merged above; nothing to send.
	}
	return nil
}
