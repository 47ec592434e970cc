package live

import (
	"testing"
	"time"

	"gossip/internal/graph"
)

// TestTCPBatchedAggregation is the tentpole's hot-path check: a burst sent
// inside one flush window coalesces into a handful of FrameBatch super-frames
// — WireMsgsOut counts logical messages, WireFramesOut physical frames — and
// every message still arrives exactly once.
func TestTCPBatchedAggregation(t *testing.T) {
	a, b := tcpPair(t)
	a.SetFlushWindow(20 * time.Millisecond)

	const n = 64
	for i := 0; i < n; i++ {
		if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: i, Payload: bitp{}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int]bool, n)
	for got := 0; got < n; got++ {
		m := recvWithin(t, b.Recv(1), 10*time.Second)
		if seen[m.SentTick] {
			t.Fatalf("duplicate delivery for SentTick %d", m.SentTick)
		}
		seen[m.SentTick] = true
	}
	if msgs := a.WireMsgsOut(); msgs != n {
		t.Errorf("WireMsgsOut = %d, want %d", msgs, n)
	}
	if frames := a.WireFramesOut(); frames >= n/4 {
		t.Errorf("%d frames for %d messages — super-frames are not aggregating", frames, n)
	}
	if f, fr := a.WireFlushes(), a.WireFramesOut(); f > fr {
		t.Errorf("WireFlushes = %d > WireFramesOut = %d — a socket write per frame at most", f, fr)
	}
}

// TestTCPFlushAccountingConsistency is the satellite-1 regression test: the
// batching-factor math (msgs/frames, frames/flushes) must be computable from
// the same three counters whether the flush window is zero (write-per-cycle
// coalescing) or positive (windowed batching). Historically the 0-window path
// under-counted WireFlushes, making the windowed factor incomparable.
func TestTCPFlushAccountingConsistency(t *testing.T) {
	const n = 16

	// Zero window, serialized sends: every message is its own cycle, so all
	// three counters must agree — one logical message per frame per flush.
	// This is the batch-of-one pin: a lone message is a one-entry super-frame.
	a, b := tcpPair(t)
	for i := 0; i < n; i++ {
		if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: i, Payload: bitp{}}, 0); err != nil {
			t.Fatal(err)
		}
		recvWithin(t, b.Recv(1), 10*time.Second)
	}
	if msgs, frames := a.WireMsgsOut(), a.WireFramesOut(); msgs != n || frames != n {
		t.Errorf("0-window: msgs = %d, frames = %d, want %d each", msgs, frames, n)
	}
	if f := a.WireFlushes(); f != n {
		t.Errorf("0-window: WireFlushes = %d, want %d (one socket write per serialized message)", f, n)
	}

	// Windowed burst on a fresh pair: frames and flushes both collapse, and
	// the factor msgs/frames is what the PERFORMANCE.md accounting reports.
	c, d := tcpPair(t)
	c.SetFlushWindow(20 * time.Millisecond)
	for i := 0; i < n; i++ {
		if err := c.Send(Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: i, Payload: bitp{}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got < n; got++ {
		recvWithin(t, d.Recv(1), 10*time.Second)
	}
	msgs, frames, flushes := c.WireMsgsOut(), c.WireFramesOut(), c.WireFlushes()
	if msgs != n {
		t.Errorf("windowed: WireMsgsOut = %d, want %d", msgs, n)
	}
	if frames == 0 || flushes == 0 {
		t.Fatalf("windowed: frames = %d, flushes = %d — counters not ticking", frames, flushes)
	}
	if factor := msgs / frames; factor < 4 {
		t.Errorf("windowed: batching factor %d (msgs=%d frames=%d), want >= 4", factor, msgs, frames)
	}
	if flushes > frames {
		t.Errorf("windowed: WireFlushes = %d > WireFramesOut = %d", flushes, frames)
	}
}

// TestTCPBatchedCloseCountsQueued: messages batched-queued but never flushed
// when Close lands must surface in Dropped() — batch bookkeeping cannot make
// losses invisible.
func TestTCPBatchedCloseCountsQueued(t *testing.T) {
	addr, _, closeLn := quietListener(t)
	defer closeLn()
	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetPeers(map[graph.NodeID]string{1: addr})
	tr.SetFlushWindow(time.Hour) // park the writer: sends stay queued, unwritten

	const sends = 5
	for i := 0; i < sends; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Dropped(); got != sends {
		t.Errorf("Dropped = %d after Close with %d queued, want %d", got, sends, sends)
	}
}
