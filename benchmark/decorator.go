package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"gossip"
	"gossip/internal/live"
)

// msgKey identifies one half of an exchange; a retransmitted or duplicated
// copy has the same key and only its first delivery is measured.
type msgKey struct {
	from, to gossip.NodeID
	kind     live.MsgKind
	tick     int
}

// sampled picks one message in 64 by a hash of its identity, so both ends of
// a link pick the same messages without talking to each other and the
// decorator's cost stays far below a message's own.
func sampled(k msgKey) bool {
	h := splitmix64(uint64(k.from)<<32 ^ uint64(uint32(k.to)))
	h = splitmix64(h ^ uint64(k.kind)<<56 ^ uint64(uint32(k.tick)))
	return h&63 == 0
}

type sentAt struct {
	at     time.Time
	delay  time.Duration
	daemon int
}

// transitTable matches the sampled sends of one repetition to their
// deliveries, across the decorators of all its daemons.
type transitTable struct {
	mu         sync.Mutex
	sent       map[msgKey]sentAt
	sendNs     []float64 // time inside the inner Send
	crossUs    []float64 // cross-daemon: Send call to sink delivery, minus the delay the sender applied
	localUs    []float64 // same-daemon: Send call to hand-over to the owning shard
	peersSet   time.Time
	firstCross time.Time
}

func newTransitTable() *transitTable { return &transitTable{sent: map[msgKey]sentAt{}} }

// decorator sits at the live.Transport / live.SinkTransport seam of one
// daemon in a traced repetition. It forwards everything; it never calls the
// inner Recv, which ROADMAP item 2 removes.
type decorator struct {
	inner     live.Transport
	sinker    live.SinkTransport
	daemon    int
	table     *transitTable
	crossSeen atomic.Bool
}

func newDecorator(inner live.Transport, daemon int, table *transitTable) *decorator {
	d := &decorator{inner: inner, daemon: daemon, table: table}
	d.sinker, _ = inner.(live.SinkTransport)
	return d
}

func (d *decorator) Send(msg live.Message, delay time.Duration) error {
	k := msgKey{msg.From, msg.To, msg.Kind, msg.SentTick}
	if !sampled(k) {
		return d.inner.Send(msg, delay)
	}
	t0 := time.Now()
	d.table.mu.Lock()
	d.table.sent[k] = sentAt{at: t0, delay: delay, daemon: d.daemon}
	d.table.mu.Unlock()
	err := d.inner.Send(msg, delay)
	ns := float64(time.Since(t0))
	d.table.mu.Lock()
	d.table.sendNs = append(d.table.sendNs, ns)
	d.table.mu.Unlock()
	return err
}

// Recv reports no inbox: the runtime reaches hosted nodes through the sink.
func (d *decorator) Recv(gossip.NodeID) <-chan live.Message { return nil }

func (d *decorator) Close() error { return d.inner.Close() }

func (d *decorator) Hosts(u gossip.NodeID) bool { return d.sinker != nil && d.sinker.Hosts(u) }

func (d *decorator) SetSink(sink live.DeliverySink) bool {
	if d.sinker == nil {
		return false
	}
	if sink == nil {
		return d.sinker.SetSink(nil)
	}
	return d.sinker.SetSink(func(msg live.Message, delay time.Duration) bool {
		d.delivered(msg, delay)
		return sink(msg, delay)
	})
}

// delivered records the transit of a sampled message: the time since its
// Send was called, less the part of the requested delay already served (a
// cross-daemon message arrives with its delay spent on the sender's wheel, a
// same-daemon one carries it on to the shard's).
func (d *decorator) delivered(msg live.Message, delay time.Duration) {
	if !d.crossSeen.Load() && !d.sinker.Hosts(msg.From) {
		d.crossSeen.Store(true)
		d.table.mu.Lock()
		if d.table.firstCross.IsZero() {
			d.table.firstCross = time.Now()
		}
		d.table.mu.Unlock()
	}
	k := msgKey{msg.From, msg.To, msg.Kind, msg.SentTick}
	if !sampled(k) {
		return
	}
	now := time.Now()
	d.table.mu.Lock()
	defer d.table.mu.Unlock()
	s, ok := d.table.sent[k]
	if !ok {
		return
	}
	delete(d.table.sent, k)
	us := float64(now.Sub(s.at)-(s.delay-delay)) / 1e3
	if s.daemon == d.daemon {
		d.table.localUs = append(d.table.localUs, us)
	} else {
		d.table.crossUs = append(d.table.crossUs, us)
	}
}

func (d *decorator) Faults() live.FaultReport {
	if fr, ok := d.inner.(live.FaultReporter); ok {
		return fr.Faults()
	}
	return live.FaultReport{}
}

func (d *decorator) Drain(ctx context.Context) (live.DrainReport, error) {
	if dr, ok := d.inner.(live.Drainer); ok {
		return dr.Drain(ctx)
	}
	return live.DrainReport{}, d.inner.Close()
}
