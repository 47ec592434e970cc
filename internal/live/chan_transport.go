package live

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gossip/internal/graph"
)

// ChanTransport is the in-process transport and the one gossip.RunLive
// uses; the name survives from when it buffered each node's deliveries on a
// channel. Send hands every message straight to the runtime's DeliverySink,
// which arms the edge's latency on the sending shard's calendar or hands
// the message to the owning shard, so the transport holds nothing in
// flight. A send no sink takes is counted in TransportDrops.
type ChanTransport struct {
	n         int
	sink      atomic.Pointer[DeliverySink]
	drops     atomic.Int64 // sends no sink took
	closed    chan struct{}
	closeOnce sync.Once
}

var _ Transport = (*ChanTransport)(nil)
var _ SinkTransport = (*ChanTransport)(nil)
var _ FaultReporter = (*ChanTransport)(nil)

// NewChanTransport builds an in-process transport hosting nodes 0..n-1.
func NewChanTransport(n int) *ChanTransport {
	return &ChanTransport{n: n, closed: make(chan struct{})}
}

// Send implements Transport by handing msg and its delay to the sink.
func (t *ChanTransport) Send(msg Message, delay time.Duration) error {
	select {
	case <-t.closed:
		return ErrTransportClosed
	default:
	}
	if msg.To < 0 || int(msg.To) >= t.n {
		return fmt.Errorf("live: destination %d out of range [0,%d)", msg.To, t.n)
	}
	if s := t.sink.Load(); s != nil && (*s)(msg, delay) {
		return nil
	}
	t.drops.Add(1)
	return nil
}

// Recv implements Transport's stub (see Transport): always nil.
func (t *ChanTransport) Recv(graph.NodeID) <-chan Message { return nil }

// Hosts implements SinkTransport.
func (t *ChanTransport) Hosts(u graph.NodeID) bool {
	return u >= 0 && int(u) < t.n
}

// SetSink implements SinkTransport.
func (t *ChanTransport) SetSink(sink DeliverySink) bool {
	if sink == nil {
		t.sink.Store(nil)
	} else {
		t.sink.Store(&sink)
	}
	return true
}

// Close implements Transport: later sends are refused.
func (t *ChanTransport) Close() error {
	t.closeOnce.Do(func() { close(t.closed) })
	return nil
}

// Drain implements Drainer: with nothing in flight there is nothing to
// flush, so draining is closing, and always clean.
func (t *ChanTransport) Drain(context.Context) (DrainReport, error) {
	t.Close()
	return DrainReport{Clean: true}, nil
}

// Faults implements FaultReporter: the in-process transport's only loss path
// is a send no sink took.
func (t *ChanTransport) Faults() FaultReport {
	return FaultReport{FaultCounts: FaultCounts{TransportDrops: t.drops.Load()}}
}
