package live

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"gossip/internal/graph"
	"gossip/internal/member"
	"gossip/internal/rng"
)

// This file is the chaos layer of the live runtime: FaultTransport, a
// decorator that injects deterministic, seeded faults over any Transport —
// message drops, duplication, latency jitter, symmetric and one-way link
// cuts, flapping links and slow-node latency ramps, each scheduled over a
// tick window as a FaultPhase — plus the FaultReport shape through which
// transports surface their fault accounting to Result.
//
// Every fault decision is a pure function of (fault seed, phase, message
// identity), where a message's identity is the tuple (EdgeID, Kind, From,
// SentTick, attempt), and phases activate on SentTick — the tick the
// exchange was initiated, stamped identically across runs. Goroutine
// scheduling therefore cannot change which messages are dropped, duplicated,
// or delayed: two runs whose protocols emit the same messages experience
// byte-identical faults. The decision is also made before the message
// reaches any transport, so it is independent of what carries it: a run
// behaves identically over TCP, unix sockets, and the in-process transport
// (which never encodes).

// FaultConfig is a fault plan. Drop, Duplicate and JitterTicks are whole-run
// weather: they compile to an unbounded phase 0 that precedes Phases. The
// zero value injects nothing (a pure pass-through that only counts traffic).
type FaultConfig struct {
	// Seed drives every fault decision. It is independent of the protocol
	// seed, so the same network weather can be replayed over different
	// protocol randomness and vice versa.
	Seed uint64
	// Tick is the wall-clock duration of one tick, used to scale jitter and
	// latency ramps (0 = DefaultTick). Set it to the run's Options.Tick.
	Tick time.Duration
	// Drop is the per-message loss probability in [0, 1].
	Drop float64
	// Duplicate is the per-message duplication probability in [0, 1]; a
	// duplicated message is delivered twice (the copy with at least one extra
	// tick of delay), exercising receiver-side idempotence.
	Duplicate float64
	// JitterTicks adds a uniform extra delivery delay of 0..JitterTicks
	// ticks per message (0 = no jitter).
	JitterTicks int
	// Phases schedules staged faults — partitions, one-way cuts, flapping
	// links, slow nodes, loss bursts — each over its own tick window.
	Phases []FaultPhase
}

// FaultPhase is one staged fault epoch, active for exchanges initiated in
// the tick window [From, Until) (Until <= 0 means it never ends). A phase
// may combine several fault classes; zero-valued classes are inactive.
type FaultPhase struct {
	// Name labels the phase in reports.
	Name string
	// From and Until bound the phase's tick window.
	From, Until int

	// Cut lists severed edge IDs (see CutBetween). Messages crossing them
	// are dropped for the whole window — both halves of an exchange see the
	// same epoch, so the cut is symmetric — or, when FlapPeriod > 0, only in
	// the down stretch of a square wave: up for FlapUp ticks out of every
	// FlapPeriod (FlapUp outside (0, FlapPeriod] means half, rounded up).
	Cut        []int
	FlapPeriod int
	FlapUp     int

	// Asymmetric partition: messages from a node in AsymFrom to a node in
	// AsymTo are dropped; the reverse direction flows freely. One-way
	// reachability is the classic trigger for false suspicion.
	AsymFrom, AsymTo []graph.NodeID

	// Slow nodes: messages to or from a node in SlowNodes gain extra
	// delivery delay, ramping linearly from zero at From to SlowMaxTicks
	// ticks at Until (or a flat SlowMaxTicks when the phase is unbounded) —
	// a node sinking into overload rather than failing clean.
	SlowNodes    []graph.NodeID
	SlowMaxTicks int

	// Loss is a per-message loss probability confined to the window.
	Loss float64
}

// active reports whether the phase covers an exchange initiated at tick.
func (p *FaultPhase) active(tick int) bool {
	return tick >= p.From && (p.Until <= 0 || tick < p.Until)
}

// cutDown reports whether the phase's Cut edges are down for an exchange
// initiated at tick inside the window.
func (p *FaultPhase) cutDown(tick int) bool {
	if p.FlapPeriod <= 0 {
		return true
	}
	up := p.FlapUp
	if up <= 0 || up > p.FlapPeriod {
		up = (p.FlapPeriod + 1) / 2
	}
	return (tick-p.From)%p.FlapPeriod >= up
}

// slowExtra returns the phase's extra delay in ticks for an exchange
// initiated at tick: a linear ramp over the window.
func (p *FaultPhase) slowExtra(tick int) int {
	if p.SlowMaxTicks <= 0 {
		return 0
	}
	if p.Until <= p.From {
		return p.SlowMaxTicks
	}
	extra := p.SlowMaxTicks * (tick - p.From + 1) / (p.Until - p.From)
	if extra > p.SlowMaxTicks {
		extra = p.SlowMaxTicks
	}
	return extra
}

// CutBetween returns the IDs of all edges with one endpoint in a and the
// other in b — the edge set of the (a, b) cut, ready for FaultPhase.Cut.
func CutBetween(g *graph.Graph, a, b []graph.NodeID) []int {
	inB := make(map[graph.NodeID]bool, len(b))
	for _, u := range b {
		inB[u] = true
	}
	seen := make(map[int]bool)
	var ids []int
	for _, u := range a {
		for _, he := range g.Neighbors(u) {
			if inB[int(he.To)] && !seen[int(he.ID)] {
				seen[int(he.ID)] = true
				ids = append(ids, int(he.ID))
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// FaultCounts aggregates fault accounting across the transport stack.
type FaultCounts struct {
	// InjectedDrops counts messages eaten by injected loss (Drop, Loss).
	InjectedDrops int64
	// InjectedDups counts extra copies delivered by the duplication rate.
	InjectedDups int64
	// Jittered counts messages delivered with extra injected delay (jitter
	// or a slow-node ramp), once per cause that delayed them.
	Jittered int64
	// PartitionDrops counts messages eaten by a cut: a down Cut edge or an
	// asymmetric partition.
	PartitionDrops int64
	// TransportDrops counts messages the underlying transport lost for real
	// reasons: messages behind a dial that gave up, written and unacked
	// when their connection broke, undecodable or misrouted wire messages,
	// and deliveries abandoned at Close. A runtime's Result adds
	// the posts its shards abandoned when it stopped: whatever was still
	// queued or armed, and posts to a shard that had already stopped — on
	// a completed run too, as messages in flight at the stop — and the
	// messages whose delay ran past the calendar's horizon.
	TransportDrops int64
	// Retransmits is always 0: no transport retransmits (a stream
	// transport leaves that to its byte stream). It stays only while the
	// benchmark harness still reads it.
	Retransmits int64
	// DupsSuppressed is always 0: every transport delivers each copy it
	// is given, and a repeated message is the handlers' to absorb. It stays
	// only while the benchmark harness still reads it.
	DupsSuppressed int64
}

// Dropped returns the total messages lost to any cause.
func (c FaultCounts) Dropped() int64 {
	return c.InjectedDrops + c.PartitionDrops + c.TransportDrops
}

// add accumulates other into c.
func (c *FaultCounts) add(other FaultCounts) {
	c.InjectedDrops += other.InjectedDrops
	c.InjectedDups += other.InjectedDups
	c.Jittered += other.Jittered
	c.PartitionDrops += other.PartitionDrops
	c.TransportDrops += other.TransportDrops
}

// FaultPhaseReport is one configured phase's fault ledger.
type FaultPhaseReport struct {
	Name      string
	CutDrops  int64 // messages eaten by a down Cut edge
	AsymDrops int64 // messages eaten by the one-way partition
	LossDrops int64 // messages eaten by the loss rate
	Delayed   int64 // messages slowed by the latency ramp
}

// FaultReport is the fault ledger of one live run: the counters, the
// per-phase breakdown, and the informed-fraction trajectory sampled once per
// watcher tick (filled in by Run).
type FaultReport struct {
	FaultCounts
	// Overload is always zero: nothing sheds (see OverloadCounts).
	Overload OverloadCounts
	// Phases holds one row per configured FaultConfig.Phases entry, in order
	// (nil when no FaultTransport with phases was in the stack). The whole-run
	// weather of phase 0 shows only in the FaultCounts totals.
	Phases []FaultPhaseReport
	// InformedOverTime samples the fraction of hosted reachable survivors
	// that reached the local goal, once per tick of the run's watcher.
	InformedOverTime []float64
}

// FaultReporter is implemented by transports that keep fault accounting;
// Run consults it to fill Result.Faults. A decorator (FaultTransport)
// folds its inner transport's counts into its own report.
type FaultReporter interface {
	Faults() FaultReport
}

// phase is a FaultPhase compiled for Send: its node and edge lists as sets
// (nil when empty, so a lookup is a no-op) and its ledger.
type phase struct {
	FaultPhase
	cut                    map[int]bool
	asymFrom, asymTo, slow map[graph.NodeID]bool

	cutDrops, asymDrops, lossDrops, delayed atomic.Int64
}

// FaultTransport decorates an inner Transport with seeded fault injection.
// It is composable: wrap a ChanTransport for a lossy in-process network, or
// a StreamTransport to add injected chaos on top of real network failures.
type FaultTransport struct {
	inner  Transport
	seed   uint64
	tick   time.Duration
	phases []phase // phase 0 is the config's whole-run loss

	// The config's whole-run duplication and jitter, drawn as phase 0.
	dup    float64
	jitter int
	dups   atomic.Int64
}

var _ Transport = (*FaultTransport)(nil)
var _ SinkTransport = (*FaultTransport)(nil)
var _ FaultReporter = (*FaultTransport)(nil)
var _ Drainer = (*FaultTransport)(nil)
var _ PeerStatusSink = (*FaultTransport)(nil)
var _ congestion = (*FaultTransport)(nil)

// NewFaultTransport wraps inner with the given fault plan. The caller keeps
// ownership of inner's lifetime; closing the FaultTransport closes inner.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	if cfg.Tick <= 0 {
		cfg.Tick = DefaultTick
	}
	t := &FaultTransport{
		inner:  inner,
		seed:   cfg.Seed,
		tick:   cfg.Tick,
		phases: make([]phase, 1+len(cfg.Phases)),
		dup:    cfg.Duplicate,
		jitter: cfg.JitterTicks,
	}
	// Phase 0 covers every tick, as whole-run weather always has.
	t.phases[0].FaultPhase = FaultPhase{From: math.MinInt, Loss: cfg.Drop}
	for i, fp := range cfg.Phases {
		p := &t.phases[1+i]
		p.FaultPhase = fp
		p.cut = setOf(fp.Cut)
		p.asymFrom = setOf(fp.AsymFrom)
		p.asymTo = setOf(fp.AsymTo)
		p.slow = setOf(fp.SlowNodes)
	}
	return t
}

// setOf returns ids as a set, nil when empty.
func setOf[K comparable](ids []K) map[K]bool {
	if len(ids) == 0 {
		return nil
	}
	m := make(map[K]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// Fault decision tags keep the drop, duplication, and jitter draws of one
// message independent.
const (
	faultTagDrop uint64 = iota + 1
	faultTagDup
	faultTagJitter
)

// coin draws phase's fault of probability p for the message: a PRF of (seed,
// tag, phase, message identity, attempt). For phase 0 it is the draw
// whole-run faults have always made.
func (t *FaultTransport) coin(p float64, tag uint64, phase int, msg Message, attempt uint64) bool {
	return rng.Coin(p, t.seed, tag|uint64(phase)<<8, uint64(msg.EdgeID), uint64(msg.Kind),
		uint64(msg.From), uint64(uint32(msg.SentTick)), attempt)
}

// jitterOf draws the message's whole-run extra delay in ticks, uniform in
// [0, JitterTicks].
func (t *FaultTransport) jitterOf(msg Message, attempt uint64) int {
	if t.jitter <= 0 {
		return 0
	}
	h := rng.Hash(t.seed, faultTagJitter, uint64(msg.EdgeID), uint64(msg.Kind),
		uint64(msg.From), uint64(uint32(msg.SentTick)), attempt)
	return int(h % uint64(t.jitter+1))
}

// Send implements Transport: it applies the fault plan, then forwards the
// surviving deliveries (with any extra delay) to the inner transport. Every
// active phase's cuts are checked before any loss counts, so a cut message
// is a PartitionDrop whatever the loss draw says; jitter and slow ramps add
// up; the duplicate is drawn once the original went out.
func (t *FaultTransport) Send(msg Message, delay time.Duration) error {
	tick := msg.SentTick
	lost := -1
	for i := range t.phases {
		p := &t.phases[i]
		if !p.active(tick) {
			continue
		}
		if p.asymFrom[msg.From] && p.asymTo[msg.To] {
			p.asymDrops.Add(1)
			return nil // a cut link eats the message silently
		}
		if p.cut[msg.EdgeID] && p.cutDown(tick) {
			p.cutDrops.Add(1)
			return nil
		}
		if lost < 0 && t.coin(p.Loss, faultTagDrop, i, msg, 0) {
			lost = i
		}
	}
	if lost >= 0 {
		t.phases[lost].lossDrops.Add(1)
		return nil
	}
	if j := t.jitterOf(msg, 0); j > 0 {
		t.phases[0].delayed.Add(1)
		delay += time.Duration(j) * t.tick
	}
	for i := range t.phases {
		p := &t.phases[i]
		if (p.slow[msg.From] || p.slow[msg.To]) && p.active(tick) {
			if extra := p.slowExtra(tick); extra > 0 {
				p.delayed.Add(1)
				delay += time.Duration(extra) * t.tick
			}
		}
	}
	if err := t.inner.Send(msg, delay); err != nil {
		return err
	}
	if t.coin(t.dup, faultTagDup, 0, msg, 0) {
		t.dups.Add(1)
		// The copy trails the original by at least one tick so receivers see
		// a genuine duplicate arrival, not a same-instant double delivery.
		// Best effort: if the inner transport refuses the copy, the original
		// already went out and inner's own accounting covers the loss.
		_ = t.inner.Send(msg, delay+time.Duration(1+t.jitterOf(msg, 1))*t.tick)
	}
	return nil
}

// Recv implements Transport's stub (see Transport): always nil.
func (t *FaultTransport) Recv(graph.NodeID) <-chan Message { return nil }

// Hosts implements SinkTransport by asking the inner transport; one that
// cannot take a sink hosts nothing.
func (t *FaultTransport) Hosts(u graph.NodeID) bool {
	st, ok := t.inner.(SinkTransport)
	return ok && st.Hosts(u)
}

// SetSink forwards the runtime's sink to the inner transport. The chaos layer
// stays in force: fault decisions happen in Send, before the inner transport
// hands the surviving message to the sink.
func (t *FaultTransport) SetSink(sink DeliverySink) bool {
	if st, ok := t.inner.(SinkTransport); ok {
		return st.SetSink(sink)
	}
	return false
}

// Close implements Transport by closing the inner transport.
func (t *FaultTransport) Close() error { return t.inner.Close() }

// Faults implements FaultReporter: the per-phase ledger and its totals, plus
// whatever the inner transport reports (its real losses).
func (t *FaultTransport) Faults() FaultReport {
	rep := FaultReport{FaultCounts: FaultCounts{InjectedDups: t.dups.Load()}}
	for i := range t.phases {
		p := &t.phases[i]
		row := FaultPhaseReport{
			Name:      p.Name,
			CutDrops:  p.cutDrops.Load(),
			AsymDrops: p.asymDrops.Load(),
			LossDrops: p.lossDrops.Load(),
			Delayed:   p.delayed.Load(),
		}
		rep.PartitionDrops += row.CutDrops + row.AsymDrops
		rep.InjectedDrops += row.LossDrops
		rep.Jittered += row.Delayed
		if i > 0 {
			rep.Phases = append(rep.Phases, row)
		}
	}
	if fr, ok := t.inner.(FaultReporter); ok {
		inner := fr.Faults()
		rep.FaultCounts.add(inner.FaultCounts)
	}
	return rep
}

// Drain implements Drainer by forwarding to the inner transport.
func (t *FaultTransport) Drain(ctx context.Context) (DrainReport, error) {
	if d, ok := t.inner.(Drainer); ok {
		return d.Drain(ctx)
	}
	return DrainReport{}, t.inner.Close()
}

// congested forwards the inner transport's congestion (see congestion).
func (t *FaultTransport) congested() bool {
	c, ok := t.inner.(congestion)
	return ok && c.congested()
}

// PeerDown / PeerUp forward membership verdicts to the inner transport.
func (t *FaultTransport) PeerDown(u graph.NodeID) {
	if s, ok := t.inner.(PeerStatusSink); ok {
		s.PeerDown(u)
	}
}

func (t *FaultTransport) PeerUp(u graph.NodeID) {
	if s, ok := t.inner.(PeerStatusSink); ok {
		s.PeerUp(u)
	}
}

// VerifyRecovery asserts the post-heal invariants of a chaos run over its
// Result: the run completed, every survivor reached the protocol goal, and —
// when membership ran — no surviving observer's final table holds a survivor
// Dead (zero false dead declarations survive the heal). A residual Suspect is
// tolerated: a live detector always has probes in flight, and suspicion is
// the self-correcting intermediate state, not a verdict. It returns nil when
// all invariants hold.
func VerifyRecovery(res Result, survivors []graph.NodeID) error {
	if !res.Completed {
		return fmt.Errorf("chaos: run did not complete")
	}
	for _, v := range survivors {
		if int(v) < len(res.Done) && !res.Done[v] {
			return fmt.Errorf("chaos: survivor %d not informed after heal", v)
		}
	}
	if res.Members == nil {
		return nil
	}
	for _, obs := range survivors {
		table, ok := res.Members[obs]
		if !ok {
			continue // hosted by another runtime
		}
		seen := make(map[int]member.State, len(table))
		for _, up := range table {
			seen[up.Node] = up.St
		}
		for _, v := range survivors {
			st, known := seen[int(v)]
			if !known {
				return fmt.Errorf("chaos: observer %d never learned of survivor %d", obs, v)
			}
			if st == member.Dead {
				return fmt.Errorf("chaos: observer %d holds survivor %d dead after heal (false dead declaration)", obs, v)
			}
		}
	}
	return nil
}
