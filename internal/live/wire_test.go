package live

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"gossip/internal/graph"
)

// encodeFrames is a test helper running appendFrame through one encoder.
func encodeFrames(e *wireEnc, frames []wireMessage, acks [][]uint64) []byte {
	var out []byte
	for i := range frames {
		var a []uint64
		if acks != nil {
			a = acks[i]
		}
		out = e.appendFrame(out, &frames[i], a)
	}
	return out
}

// TestWireFrameRoundTrip encodes a table of messages and decodes them back,
// checking every field survives — including negative ints (zigzag varints)
// and empty payloads.
func TestWireFrameRoundTrip(t *testing.T) {
	msgs := []wireMessage{
		{Kind: 1, Seq: 1, From: 0, To: 1, EdgeID: 0, Latency: 1, SentTick: 0},
		{Kind: 2, Seq: 1 << 40, From: 255, To: 256, EdgeID: 12345, Latency: 7, SentTick: 99,
			PayloadType: "live_test.bit", Payload: []byte(`true`)},
		{Kind: 0xFF, Seq: 0, From: -1, To: -7, EdgeID: -3, Latency: -100, SentTick: -1 << 30},
		{Kind: 1, Seq: 2, From: 3, To: 4, EdgeID: 5, Latency: 6, SentTick: 7,
			PayloadType: "live_test.bit", Payload: []byte(`false`)},
	}
	var enc wireEnc
	wire := encodeFrames(&enc, msgs, nil)

	br := bufio.NewReader(bytes.NewReader(wire))
	var dec wireDec
	for i, want := range msgs {
		var got wireMessage
		acks, hasData, err := dec.readFrame(br, &got)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !hasData || len(acks) != 0 {
			t.Fatalf("frame %d: hasData=%v acks=%v", i, hasData, acks)
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || got.From != want.From ||
			got.To != want.To || got.EdgeID != want.EdgeID || got.Latency != want.Latency ||
			got.SentTick != want.SentTick || got.PayloadType != want.PayloadType ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, _, err := dec.readFrame(br, &wireMessage{}); err == nil {
		t.Error("expected EOF after last frame")
	}
}

// TestWirePayloadTypeInterning checks the per-connection intern table: the
// first frame carrying a type pays for its name, later frames reference it,
// so repeat frames are strictly smaller.
func TestWirePayloadTypeInterning(t *testing.T) {
	m := wireMessage{Kind: 1, Seq: 9, From: 1, To: 2, EdgeID: 3, Latency: 4, SentTick: 5,
		PayloadType: "core.rumors", Payload: []byte(`{"n":4,"s":"0a"}`)}
	var enc wireEnc
	first := enc.appendFrame(nil, &m, nil)
	second := enc.appendFrame(nil, &m, nil)
	if len(second) >= len(first) {
		t.Errorf("interned frame is %dB, first was %dB — expected smaller", len(second), len(first))
	}
	if want := len(first) - len(m.PayloadType) - 1; len(second) != want {
		// Reference costs 1 byte where the define cost 1 + nameLen(1) + name.
		t.Errorf("interned frame is %dB, want %dB", len(second), want)
	}
	br := bufio.NewReader(bytes.NewReader(append(append([]byte(nil), first...), second...)))
	var dec wireDec
	for i := 0; i < 2; i++ {
		var got wireMessage
		if _, _, err := dec.readFrame(br, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.PayloadType != m.PayloadType {
			t.Errorf("frame %d: PayloadType %q", i, got.PayloadType)
		}
	}
}

// TestWireAckBatch checks piggybacked ack batches: unsorted input seqs come
// back sorted (they are delta-encoded ascending), both standalone and folded
// into a data frame.
func TestWireAckBatch(t *testing.T) {
	acks := []uint64{90, 7, 8, 1000000, 9}
	var enc wireEnc
	ackOnly := enc.appendFrame(nil, nil, append([]uint64(nil), acks...))
	m := wireMessage{Kind: 2, Seq: 4, From: 1, To: 0, EdgeID: 2, Latency: 3, SentTick: 6}
	withData := enc.appendFrame(nil, &m, append([]uint64(nil), acks...))

	want := []uint64{7, 8, 9, 90, 1000000}
	for name, wire := range map[string][]byte{"ack-only": ackOnly, "piggybacked": withData} {
		br := bufio.NewReader(bytes.NewReader(wire))
		var dec wireDec
		var got wireMessage
		gotAcks, hasData, err := dec.readFrame(br, &got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hasData != (name == "piggybacked") {
			t.Errorf("%s: hasData = %v", name, hasData)
		}
		if len(gotAcks) != len(want) {
			t.Fatalf("%s: acks %v, want %v", name, gotAcks, want)
		}
		for i := range want {
			if gotAcks[i] != want[i] {
				t.Fatalf("%s: acks %v, want %v", name, gotAcks, want)
			}
		}
		if hasData && got.Seq != m.Seq {
			t.Errorf("%s: data seq %d", name, got.Seq)
		}
	}
}

// TestWireMalformedFrames checks the decoder rejects corrupt input with
// errMalformedFrame (or a version error) instead of misreading it.
func TestWireMalformedFrames(t *testing.T) {
	var enc wireEnc
	m := wireMessage{Kind: 1, Seq: 3, From: 1, To: 2, EdgeID: 3, Latency: 4, SentTick: 5,
		PayloadType: "live_test.bit", Payload: []byte(`true`)}
	good := enc.appendFrame(nil, &m, []uint64{1, 2})

	cases := map[string][]byte{
		"json leading byte":  []byte(`{"k":1}` + "\n"),
		"bad version nibble": append([]byte{0x20}, good[1:]...),
		"truncated body":     good[:len(good)-3],
		"body length lies":   append([]byte{good[0], byte(len(good))}, good[2:]...),
		"type ref oob": (&wireEnc{names: map[string]uint64{m.PayloadType: 5}}).
			appendFrame(nil, &m, nil), // encoder emits a table ref the decoder never saw defined
	}
	for name, wire := range cases {
		br := bufio.NewReader(bytes.NewReader(wire))
		var dec wireDec
		_, _, err := dec.readFrame(br, &wireMessage{})
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Specifically: corrupt structure inside a well-framed body must be
	// errMalformedFrame so the transport counts it as a decode drop.
	br := bufio.NewReader(bytes.NewReader([]byte{wireVersion | wireFlagData, 1, 0x01}))
	var dec wireDec
	if _, _, err := dec.readFrame(br, &wireMessage{}); !errors.Is(err, errMalformedFrame) {
		t.Errorf("truncated data section: err = %v, want errMalformedFrame", err)
	}
}

// TestWireInternTableBounded checks the decoder caps its per-connection
// payload-type intern table: a peer defining more than maxInternedTypes
// distinct names gets its frame rejected as malformed instead of growing
// decoder state without limit.
func TestWireInternTableBounded(t *testing.T) {
	var enc wireEnc
	var wire []byte
	seq := uint64(0)
	frame := func(ptype string) {
		seq++
		m := wireMessage{Kind: 1, Seq: seq, From: 1, To: 2, EdgeID: 3, Latency: 4,
			SentTick: int(seq), PayloadType: ptype, Payload: []byte(`true`)}
		wire = enc.appendFrame(wire, &m, nil)
	}
	for i := 0; i < maxInternedTypes; i++ {
		frame(fmt.Sprintf("live_test.flood%03d", i))
	}
	frame("live_test.one-too-many")

	br := bufio.NewReader(bytes.NewReader(wire))
	var dec wireDec
	for i := 0; i < maxInternedTypes; i++ {
		if _, _, err := dec.readFrame(br, &wireMessage{}); err != nil {
			t.Fatalf("frame %d (within cap): %v", i, err)
		}
	}
	if _, _, err := dec.readFrame(br, &wireMessage{}); !errors.Is(err, errMalformedFrame) {
		t.Fatalf("define past cap: err = %v, want errMalformedFrame", err)
	}
	if len(dec.names) != maxInternedTypes {
		t.Fatalf("intern table grew to %d entries, cap is %d", len(dec.names), maxInternedTypes)
	}

	// References to already-interned types must keep working at the cap.
	var enc2 wireEnc
	var wire2 []byte
	enc2.names = enc.names // pretend the same defines happened
	enc2.lastSeq, enc2.lastTick = enc.lastSeq, enc.lastTick
	seq++
	m := wireMessage{Kind: 1, Seq: seq, From: 1, To: 2, EdgeID: 3, Latency: 4,
		SentTick: int(seq), PayloadType: "live_test.flood000", Payload: []byte(`true`)}
	wire2 = enc2.appendFrame(wire2, &m, nil)
	br2 := bufio.NewReader(bytes.NewReader(wire2))
	var got wireMessage
	if _, _, err := dec.readFrame(br2, &got); err != nil {
		t.Fatalf("reference at cap: %v", err)
	}
	if got.PayloadType != "live_test.flood000" {
		t.Fatalf("reference at cap resolved to %q", got.PayloadType)
	}
}

// TestTCPWireInterop checks what a transport does with a peer that is not its
// own writer. The writer only emits FrameBatch frames, but the decoder still
// accepts a single data frame (flag 0x1): it must be acked with its Seq and
// delivered once — a batch of one, literally. A peer speaking anything other
// than the binary framing (here a JSON line) is one malformed frame: counted
// as a decode drop, connection closed, nothing delivered.
func TestTCPWireInterop(t *testing.T) {
	single := wireMessage{Kind: uint8(MsgRequest), Seq: 41, From: 0, To: 1, EdgeID: 8, Latency: 2, SentTick: 3}
	single.PayloadType, single.Payload, _ = encodePayload(bitp{informed: true})
	for _, tc := range []struct {
		name      string
		wire      []byte
		wantAck   uint64 // 0: the connection must be closed without an ack
		wantDrops int64
	}{
		{"single-data-frame", new(wireEnc).appendFrame(nil, &single, nil), single.Seq, 0},
		{"json-first-byte", []byte(`{"k":1,"q":41,"f":0,"t":1}` + "\n"), 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, b := tcpPair(t)
			c, err := net.Dial("tcp", b.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(tc.wire); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			acks, _, _, err := new(wireDec).readFrameMulti(bufio.NewReader(c))
			if tc.wantAck != 0 {
				if err != nil || len(acks) != 1 || acks[0] != tc.wantAck {
					t.Fatalf("reply acks = %v, err = %v; want one ack of seq %d", acks, err, tc.wantAck)
				}
				got := recvWithin(t, b.Recv(1), 5*time.Second)
				if p, ok := got.Payload.(bitp); !ok || !p.informed || got.EdgeID != single.EdgeID {
					t.Fatalf("arrived mangled: %+v", got)
				}
			} else if !errors.Is(err, io.EOF) {
				t.Fatalf("read from rejected connection: acks = %v, err = %v; want EOF", acks, err)
			}
			select {
			case m := <-b.Recv(1):
				t.Fatalf("unexpected delivery: %+v", m)
			case <-time.After(50 * time.Millisecond):
			}
			if got := b.dropsDecode.Load(); got != tc.wantDrops {
				t.Errorf("decode drops = %d, want %d", got, tc.wantDrops)
			}
		})
	}
}

// TestDedupShardEviction drives the tick-windowed rotation directly: entries
// a window or more behind the newest tick are reclaimed, recent entries
// still deduplicate.
func TestDedupShardEviction(t *testing.T) {
	var s dedupShard
	const window = 64
	key := func(tick int) dedupKey { return dedupKey{edge: 1, from: 2, sentTick: tick, kind: MsgRequest} }
	for tick := 0; tick < 100*window; tick++ {
		if s.seen(key(tick), window) {
			t.Fatalf("fresh tick %d reported duplicate", tick)
		}
		if max := 2 * window; s.size() > max {
			t.Fatalf("shard holds %d entries at tick %d, want <= %d", s.size(), tick, max)
		}
	}
	last := 100*window - 1
	if !s.seen(key(last), window) {
		t.Error("entry within the window was evicted")
	}
	if s.seen(key(0), window) {
		t.Error("entry 100 windows old still deduplicated — never evicted")
	}
}

// TestTCPDedupWindowEviction is the transport-level half of the satellite:
// a long run of distinct ticks must not grow the dedup set without bound.
func TestTCPDedupWindowEviction(t *testing.T) {
	a, b := tcpPair(t)
	const window = 32
	b.dedupWindow.Store(window)
	// Establish the pooled connection first so the burst below is delivered
	// in tick order (the pre-pool dial window delivers concurrently-queued
	// sends in arbitrary order, which legitimately delays rotation).
	if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: 0, Payload: bitp{}}, 0); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b.Recv(1), 10*time.Second)

	const n = 2048
	for tick := 1; tick <= n; tick++ {
		if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: tick, Payload: bitp{}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got < n; got++ {
		recvWithin(t, b.Recv(1), 10*time.Second)
	}
	// Each of the 16 shards retains two generations of roughly a window of
	// its ticks each, so the live set stays far below the n distinct keys
	// it observed.
	if size := b.dedupSize(); size >= n/4 {
		t.Errorf("dedup holds %d entries after %d distinct ticks — eviction not reclaiming", size, n)
	}
	// An entry a hundred windows old must be gone: re-sending it is
	// delivered again rather than suppressed (it is far outside any
	// retransmission lifetime, so this cannot double-deliver live traffic).
	if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: 1, Payload: bitp{}}, 0); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b.Recv(1), 10*time.Second)
	if got := b.DupsSuppressed(); got != 0 {
		t.Errorf("DupsSuppressed = %d — evicted entry still deduplicating", got)
	}
}

// TestTCPFlushCoalescing checks batched writes: with a flush window, a burst
// of sends shares a handful of flushes instead of paying one per message.
func TestTCPFlushCoalescing(t *testing.T) {
	a, b := tcpPair(t)
	a.SetFlushWindow(20 * time.Millisecond)
	const n = 64
	for i := 0; i < n; i++ {
		if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: i, Payload: bitp{}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got < n; got++ {
		recvWithin(t, b.Recv(1), 10*time.Second)
	}
	if f := a.WireFlushes(); f >= n/4 {
		t.Errorf("%d flushes for %d messages — writes are not batching", f, n)
	}
	if a.WireBytesOut() == 0 {
		t.Error("WireBytesOut = 0 after a delivered burst")
	}
}

// TestTCPBrokenConnImmediateRedial is the satellite-2 check: when a write
// hits a dead connection, the affected messages re-enter the retransmit path
// immediately instead of waiting out the RTO. With a 5s RTO, delivery well
// under that proves the immediate redial.
func TestTCPBrokenConnImmediateRedial(t *testing.T) {
	a, b := tcpPair(t)
	a.SetRetransmit(5*time.Second, 8)

	if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: 1, Payload: bitp{}}, 0); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b.Recv(1), 5*time.Second) // connection now pooled

	a.connMu.Lock()
	cs := a.outs[b.Addr().String()]
	a.connMu.Unlock()
	if cs == nil {
		t.Fatal("no pooled connection after first delivery")
	}
	cs.c.Close()

	start := time.Now()
	if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: 2, Payload: bitp{}}, 0); err != nil {
		t.Fatal(err)
	}
	got := recvWithin(t, b.Recv(1), 4*time.Second)
	if got.SentTick != 2 {
		t.Fatalf("unexpected arrival %+v", got)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("redelivery took %v with a 5s RTO — broken-conn path did not retry immediately", elapsed)
	}
	if a.Dropped() != 0 {
		t.Errorf("Dropped = %d after successful recovery", a.Dropped())
	}
}

// TestTCPClusterBothFormats runs a 16-node clique split across two TCP
// transports to push-pull completion: every node on both sides ends informed.
func TestTCPClusterBothFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster is not -short friendly")
	}
	g := graph.Clique(16, 2)
	left := make([]graph.NodeID, 0, 8)
	right := make([]graph.NodeID, 0, 8)
	for u := 0; u < g.N(); u++ {
		if u < g.N()/2 {
			left = append(left, graph.NodeID(u))
		} else {
			right = append(right, graph.NodeID(u))
		}
	}
	ta, err := NewTCPTransport("127.0.0.1:0", left, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCPTransport("127.0.0.1:0", right, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	addrs := make(map[graph.NodeID]string)
	for _, u := range left {
		addrs[u] = ta.Addr().String()
	}
	for _, u := range right {
		addrs[u] = tb.Addr().String()
	}
	ta.SetPeers(addrs)
	tb.SetPeers(addrs)

	var ra, rb Result
	var ea, eb error
	done := make(chan struct{}, 2)
	go func() {
		ra, ea = Run(g, ppProto{source: 0}, ta, Options{Seed: 5, Tick: time.Millisecond, Nodes: left, Linger: 2 * time.Second})
		done <- struct{}{}
	}()
	go func() {
		rb, eb = Run(g, ppProto{source: 0}, tb, Options{Seed: 5, Tick: time.Millisecond, Nodes: right, Linger: 2 * time.Second})
		done <- struct{}{}
	}()
	<-done
	<-done
	if ea != nil || eb != nil {
		t.Fatalf("run errors: %v / %v", ea, eb)
	}
	if !ra.Completed || !rb.Completed {
		t.Fatal("cluster incomplete")
	}
	informed := 0
	for _, u := range left {
		if ra.Done[u] {
			informed++
		}
	}
	for _, u := range right {
		if rb.Done[u] {
			informed++
		}
	}
	if informed != g.N() {
		t.Errorf("informed %d/%d", informed, g.N())
	}
}
