package live

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"gossip/internal/graph"
	"gossip/internal/rng"
)

// This file is the chaos layer of the live runtime: a FaultTransport
// decorator that injects deterministic, seeded faults — message drops,
// duplication, latency jitter, and scheduled link partitions — over any
// Transport, plus the FaultReport shape through which transports surface
// their fault accounting to Result.
//
// Every fault decision is a pure function of (fault seed, message identity),
// where a message's identity is the tuple (EdgeID, Kind, From, SentTick,
// attempt). Goroutine scheduling therefore cannot change which messages are
// dropped, duplicated, or jittered: two runs whose protocols emit the same
// messages experience byte-identical faults. The decision is also made
// before the message reaches any transport, so it is independent of what
// carries it: a run behaves identically over TCP, unix sockets, and the
// in-process channel transport (which never encodes).

// FaultConfig configures deterministic fault injection. The zero value
// injects nothing (a pure pass-through that only counts traffic).
type FaultConfig struct {
	// Seed drives every fault decision. It is independent of the protocol
	// seed, so the same network weather can be replayed over different
	// protocol randomness and vice versa.
	Seed uint64
	// Drop is the per-message loss probability in [0, 1].
	Drop float64
	// Duplicate is the per-message duplication probability in [0, 1]; a
	// duplicated message is delivered twice (the copy with one extra tick of
	// delay), exercising receiver-side idempotence.
	Duplicate float64
	// JitterTicks adds a uniform extra delivery delay of 0..JitterTicks
	// ticks per message (0 = no jitter).
	JitterTicks int
	// Tick is the wall-clock duration of one tick, used to scale jitter
	// (0 = DefaultTick). Set it to the run's Options.Tick.
	Tick time.Duration
	// Partitions schedules link cuts: while a partition is active, every
	// message of an exchange initiated inside its window that crosses a cut
	// edge is silently dropped, then the link heals.
	Partitions []Partition
}

// Partition cuts a set of edges during the tick window [From, Until). A
// message crosses the cut if the exchange that produced it was initiated
// (SentTick) inside the window — both halves of an exchange see the same
// epoch, so a cut is symmetric. Until <= 0 means the partition never heals.
type Partition struct {
	From  int
	Until int
	// Edges lists the severed edge IDs (see CutBetween for deriving them
	// from a node bipartition).
	Edges []int
}

// active reports whether the partition covers an exchange initiated at tick.
func (p Partition) active(tick int) bool {
	return tick >= p.From && (p.Until <= 0 || tick < p.Until)
}

// CutBetween returns the IDs of all edges with one endpoint in a and the
// other in b — the edge set of the (a, b) cut, ready for Partition.Edges.
func CutBetween(g *graph.Graph, a, b []graph.NodeID) []int {
	inA := make(map[graph.NodeID]bool, len(a))
	for _, u := range a {
		inA[u] = true
	}
	inB := make(map[graph.NodeID]bool, len(b))
	for _, u := range b {
		inB[u] = true
	}
	seen := make(map[int]bool)
	var ids []int
	for _, u := range a {
		for _, he := range g.Neighbors(u) {
			if inB[he.To] && !seen[he.ID] {
				seen[he.ID] = true
				ids = append(ids, he.ID)
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// FaultCounts aggregates fault accounting across the transport stack.
type FaultCounts struct {
	// InjectedDrops counts messages eaten by the FaultTransport's loss rate.
	InjectedDrops int64
	// InjectedDups counts extra copies delivered by the duplication rate.
	InjectedDups int64
	// Jittered counts messages delivered with extra injected delay.
	Jittered int64
	// PartitionDrops counts messages cut by an active partition.
	PartitionDrops int64
	// TransportDrops counts messages the underlying transport lost for real
	// reasons: retransmission give-ups, undecodable or misrouted wire
	// messages, and deliveries abandoned at Close.
	TransportDrops int64
	// Retransmits counts reliable-delivery retransmissions (TCP transport).
	Retransmits int64
	// DupsSuppressed counts receiver-side deduplication hits (TCP transport).
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
	c.Retransmits += other.Retransmits
	c.DupsSuppressed += other.DupsSuppressed
}

// FaultReport is the fault ledger of one live run: the counters, the
// partition schedule in force, and the informed-fraction trajectory sampled
// once per watcher tick (filled in by Run).
type FaultReport struct {
	FaultCounts
	// Overload is the transport's overload-protection ledger (zero when the
	// stack has no TCP transport or nothing was shed).
	Overload OverloadCounts
	// Partitions echoes the configured partition epochs (nil when no
	// FaultTransport was in the stack).
	Partitions []Partition
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

// FaultTransport decorates an inner Transport with seeded fault injection.
// It is composable: wrap a ChanTransport for a lossy in-process network, or
// a TCPTransport to add injected chaos on top of real network failures.
type FaultTransport struct {
	inner Transport
	cfg   FaultConfig
	cut   map[int][]Partition // edge ID -> partitions covering it

	injectedDrops  atomic.Int64
	injectedDups   atomic.Int64
	jittered       atomic.Int64
	partitionDrops atomic.Int64
}

var _ Transport = (*FaultTransport)(nil)
var _ SinkTransport = (*FaultTransport)(nil)
var _ FaultReporter = (*FaultTransport)(nil)

// NewFaultTransport wraps inner with the given fault plan. The caller keeps
// ownership of inner's lifetime; closing the FaultTransport closes inner.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	if cfg.Tick <= 0 {
		cfg.Tick = DefaultTick
	}
	t := &FaultTransport{inner: inner, cfg: cfg, cut: make(map[int][]Partition)}
	for _, p := range cfg.Partitions {
		for _, e := range p.Edges {
			t.cut[e] = append(t.cut[e], p)
		}
	}
	return t
}

// Fault decision tags keep the drop, duplication, and jitter draws of one
// message independent.
const (
	faultTagDrop uint64 = iota + 1
	faultTagDup
	faultTagJitter
)

// ident returns the message identity tuple the fault draws hash over.
func faultIdent(tag uint64, msg Message, attempt uint64) []uint64 {
	return []uint64{tag, uint64(msg.EdgeID), uint64(msg.Kind), uint64(msg.From), uint64(uint32(msg.SentTick)), attempt}
}

func (t *FaultTransport) coin(p float64, tag uint64, msg Message, attempt uint64) bool {
	return rng.Coin(p, t.cfg.Seed, faultIdent(tag, msg, attempt)...)
}

// jitterOf draws the message's extra delay in ticks, uniform in
// [0, JitterTicks].
func (t *FaultTransport) jitterOf(msg Message, attempt uint64) int {
	if t.cfg.JitterTicks <= 0 {
		return 0
	}
	vals := append([]uint64{t.cfg.Seed}, faultIdent(faultTagJitter, msg, attempt)...)
	return int(rng.Hash(vals...) % uint64(t.cfg.JitterTicks+1))
}

// partitioned reports whether msg crosses an active cut.
func (t *FaultTransport) partitioned(msg Message) bool {
	for _, p := range t.cut[msg.EdgeID] {
		if p.active(msg.SentTick) {
			return true
		}
	}
	return false
}

// Send implements Transport: it applies the fault plan, then forwards the
// surviving deliveries (with any extra jitter) to the inner transport.
func (t *FaultTransport) Send(msg Message, delay time.Duration) error {
	if t.partitioned(msg) {
		t.partitionDrops.Add(1)
		return nil // a cut link eats the message silently
	}
	if t.coin(t.cfg.Drop, faultTagDrop, msg, 0) {
		t.injectedDrops.Add(1)
		return nil
	}
	if j := t.jitterOf(msg, 0); j > 0 {
		t.jittered.Add(1)
		delay += time.Duration(j) * t.cfg.Tick
	}
	if err := t.inner.Send(msg, delay); err != nil {
		return err
	}
	if t.coin(t.cfg.Duplicate, faultTagDup, msg, 0) {
		t.injectedDups.Add(1)
		// The copy trails the original by at least one tick so receivers see
		// a genuine duplicate arrival, not a same-instant double delivery.
		dupDelay := delay + time.Duration(1+t.jitterOf(msg, 1))*t.cfg.Tick
		// Best effort: if the inner transport refuses the copy, the original
		// already went out and inner's own accounting covers the loss.
		_ = t.inner.Send(msg, dupDelay)
	}
	return nil
}

// Recv implements Transport.
func (t *FaultTransport) Recv(u graph.NodeID) <-chan Message { return t.inner.Recv(u) }

// Hosts implements SinkTransport by asking the inner transport (falling back
// to a Recv probe for foreign transports).
func (t *FaultTransport) Hosts(u graph.NodeID) bool {
	if st, ok := t.inner.(SinkTransport); ok {
		return st.Hosts(u)
	}
	return t.inner.Recv(u) != nil
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

// Faults implements FaultReporter: the injector's own counters plus whatever
// the inner transport reports (real TCP losses, retransmissions, dedup).
func (t *FaultTransport) Faults() FaultReport {
	rep := FaultReport{
		FaultCounts: FaultCounts{
			InjectedDrops:  t.injectedDrops.Load(),
			InjectedDups:   t.injectedDups.Load(),
			Jittered:       t.jittered.Load(),
			PartitionDrops: t.partitionDrops.Load(),
		},
		Partitions: t.cfg.Partitions,
	}
	if fr, ok := t.inner.(FaultReporter); ok {
		inner := fr.Faults()
		rep.FaultCounts.add(inner.FaultCounts)
		rep.Overload.add(inner.Overload)
		rep.Partitions = append(rep.Partitions, inner.Partitions...)
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
