package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"gossip/internal/graph"
)

// encodeFrames is a test helper running appendFrame through one encoder.
func encodeFrames(e *wireEnc, frames []wireMessage) []byte {
	var out []byte
	for i := range frames {
		out = e.appendFrame(out, &frames[i], 0)
	}
	return out
}

// TestWireFrameRoundTrip encodes a table of messages and decodes them back,
// checking every field survives — including negative ints (zigzag varints),
// delays up to the wire's limit, and empty payloads.
func TestWireFrameRoundTrip(t *testing.T) {
	msgs := []wireMessage{
		{Kind: 1, From: 0, To: 1, EdgeID: 0, Latency: 1, SentTick: 0},
		{Kind: 2, From: 255, To: 256, EdgeID: 12345, Latency: 7, SentTick: 99,
			DelayUS: 3500, PayloadType: "live_test.bit", Payload: []byte(`true`)},
		{Kind: 0xFF, From: -1, To: -7, EdgeID: -3, Latency: -100, SentTick: -1 << 30,
			DelayUS: maxWireDelayUS},
		{Kind: 1, From: 3, To: 4, EdgeID: 5, Latency: 6, SentTick: 7,
			PayloadType: "live_test.bit", Payload: []byte(`false`)},
	}
	var enc wireEnc
	wire := encodeFrames(&enc, msgs)

	br := bufio.NewReader(bytes.NewReader(wire))
	var dec wireDec
	for i, want := range msgs {
		ack, msgs, _, err := dec.readFrameMulti(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(msgs) != 1 || ack != 0 {
			t.Fatalf("frame %d: %d messages, ack=%d", i, len(msgs), ack)
		}
		got := msgs[0]
		if got.Kind != want.Kind || got.From != want.From ||
			got.To != want.To || got.EdgeID != want.EdgeID || got.Latency != want.Latency ||
			got.SentTick != want.SentTick || got.DelayUS != want.DelayUS ||
			got.PayloadType != want.PayloadType || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, _, _, err := dec.readFrameMulti(br); err == nil {
		t.Error("expected EOF after last frame")
	}
}

// TestWirePayloadTypeInterning checks the per-connection intern table: the
// first frame carrying a type pays for its name, later frames reference it,
// so repeat frames are strictly smaller.
func TestWirePayloadTypeInterning(t *testing.T) {
	m := wireMessage{Kind: 1, From: 1, To: 2, EdgeID: 3, Latency: 4, SentTick: 5,
		PayloadType: "core.rumors", Payload: []byte(`{"n":4,"s":"0a"}`)}
	var enc wireEnc
	first := enc.appendFrame(nil, &m, 0)
	second := enc.appendFrame(nil, &m, 0)
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
		_, msgs, _, err := dec.readFrameMulti(br)
		if err != nil || len(msgs) != 1 {
			t.Fatalf("frame %d: %d messages, err %v", i, len(msgs), err)
		}
		if msgs[0].PayloadType != m.PayloadType {
			t.Errorf("frame %d: PayloadType %q", i, msgs[0].PayloadType)
		}
	}
}

// TestWireAckBatch checks the cumulative ack: one uvarint, round-tripped
// standalone and piggybacked on a data frame, and a frame without one
// decodes as 0.
func TestWireAckBatch(t *testing.T) {
	const ack = 1000000
	var enc wireEnc
	ackOnly := enc.appendFrame(nil, nil, ack)
	m := wireMessage{Kind: 2, From: 1, To: 0, EdgeID: 2, Latency: 3, SentTick: 6}
	withData := enc.appendFrame(nil, &m, ack)
	without := new(wireEnc).appendFrame(nil, &m, 0)

	for _, tc := range []struct {
		name    string
		wire    []byte
		ack     uint64
		hasData bool
	}{
		{"ack-only", ackOnly, ack, false},
		{"piggybacked", withData, ack, true},
		{"no-ack", without, 0, true},
	} {
		gotAck, msgs, _, err := new(wireDec).readFrameMulti(bufio.NewReader(bytes.NewReader(tc.wire)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if gotAck != tc.ack {
			t.Errorf("%s: ack %d, want %d", tc.name, gotAck, tc.ack)
		}
		if hasData := len(msgs) == 1; hasData != tc.hasData {
			t.Errorf("%s: %d messages", tc.name, len(msgs))
		}
		if tc.hasData && msgs[0].SentTick != m.SentTick {
			t.Errorf("%s: data tick %d", tc.name, msgs[0].SentTick)
		}
	}
	// An ack-only frame is the ack's cost alone: header, body length, ack.
	if want := 2 + len(binary.AppendUvarint(nil, ack)); len(ackOnly) != want {
		t.Errorf("ack-only frame = %dB, want %dB", len(ackOnly), want)
	}
}

// TestWireMalformedFrames checks the decoder rejects corrupt input with
// errMalformedFrame (or a version error) instead of misreading it.
func TestWireMalformedFrames(t *testing.T) {
	var enc wireEnc
	m := wireMessage{Kind: 1, From: 1, To: 2, EdgeID: 3, Latency: 4, SentTick: 5,
		PayloadType: "live_test.bit", Payload: []byte(`true`)}
	good := enc.appendFrame(nil, &m, 2)

	cases := map[string][]byte{
		"json leading byte":  []byte(`{"k":1}` + "\n"),
		"bad version nibble": append([]byte{0x20 | good[0]&^wireVersionMask}, good[1:]...),
		"truncated body":     good[:len(good)-3],
		"body length lies":   append([]byte{good[0], byte(len(good))}, good[2:]...),
		"type ref oob": (&wireEnc{names: map[string]uint64{m.PayloadType: 5}}).
			appendFrame(nil, &m, 0), // encoder emits a table ref the decoder never saw defined
	}
	for name, wire := range cases {
		br := bufio.NewReader(bytes.NewReader(wire))
		var dec wireDec
		if _, _, _, err := dec.readFrameMulti(br); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Specifically: corrupt structure inside a well-framed body must be
	// errMalformedFrame so the transport counts it as a decode drop.
	br := bufio.NewReader(bytes.NewReader([]byte{wireVersion | wireFlagData, 1, 0x01}))
	var dec wireDec
	if _, _, _, err := dec.readFrameMulti(br); !errors.Is(err, errMalformedFrame) {
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
		m := wireMessage{Kind: 1, From: 1, To: 2, EdgeID: 3, Latency: 4,
			SentTick: int(seq), PayloadType: ptype, Payload: []byte(`true`)}
		wire = enc.appendFrame(wire, &m, 0)
	}
	for i := 0; i < maxInternedTypes; i++ {
		frame(fmt.Sprintf("live_test.flood%03d", i))
	}
	frame("live_test.one-too-many")

	br := bufio.NewReader(bytes.NewReader(wire))
	var dec wireDec
	for i := 0; i < maxInternedTypes; i++ {
		if _, _, _, err := dec.readFrameMulti(br); err != nil {
			t.Fatalf("frame %d (within cap): %v", i, err)
		}
	}
	if _, _, _, err := dec.readFrameMulti(br); !errors.Is(err, errMalformedFrame) {
		t.Fatalf("define past cap: err = %v, want errMalformedFrame", err)
	}
	if len(dec.names) != maxInternedTypes {
		t.Fatalf("intern table grew to %d entries, cap is %d", len(dec.names), maxInternedTypes)
	}

	// References to already-interned types must keep working at the cap.
	var enc2 wireEnc
	var wire2 []byte
	enc2.names = enc.names // pretend the same defines happened
	enc2.lastTick = enc.lastTick
	seq++
	m := wireMessage{Kind: 1, From: 1, To: 2, EdgeID: 3, Latency: 4,
		SentTick: int(seq), PayloadType: "live_test.flood000", Payload: []byte(`true`)}
	wire2 = enc2.appendFrame(wire2, &m, 0)
	br2 := bufio.NewReader(bytes.NewReader(wire2))
	_, msgs, _, err := dec.readFrameMulti(br2)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("reference at cap: %d messages, err %v", len(msgs), err)
	}
	if msgs[0].PayloadType != "live_test.flood000" {
		t.Fatalf("reference at cap resolved to %q", msgs[0].PayloadType)
	}
}

// TestTCPWireInterop checks what a transport does with a peer that is not its
// own writer. The writer only emits FrameBatch frames, but the decoder still
// accepts a single data frame (flag 0x1): it must be acked with a cumulative
// count of 1 and delivered once — a batch of one, literally. A peer speaking
// anything other than this version of the binary framing (a JSON line, a
// version-1 frame, whose sub-messages lack the delay field, or a version-2
// frame, whose sub-messages carry a sequence number), or one whose delay is
// past the wire's limit, is one malformed frame: counted as a decode drop,
// connection closed, nothing delivered.
func TestTCPWireInterop(t *testing.T) {
	single := wireMessage{Kind: uint8(MsgRequest), From: 0, To: 1, EdgeID: 8, Latency: 2, SentTick: 3}
	single.PayloadType, single.Payload, _ = encodePayload(bitp{informed: true})
	// The same message as older peers framed it, without a payload type:
	// version 1 (header 0x11) with a sequence delta and no delay, version 2
	// (header 0x21) with both.
	const seq = 41
	v1body := []byte{single.Kind}
	for _, v := range []int{seq - 1, single.From, single.To, single.EdgeID, single.Latency, single.SentTick} {
		v1body = binary.AppendVarint(v1body, int64(v))
	}
	v2body := binary.AppendUvarint(append([]byte(nil), v1body...), 0) // delay
	v1body = append(v1body, 0, 0)                                     // no payload type, empty payload
	v2body = append(v2body, 0, 0)
	v1 := append(binary.AppendUvarint([]byte{0x10 | wireFlagData}, uint64(len(v1body))), v1body...)
	v2 := append(binary.AppendUvarint([]byte{0x20 | wireFlagData}, uint64(len(v2body))), v2body...)
	late := single
	late.DelayUS = maxWireDelayUS + 1
	for _, tc := range []struct {
		name      string
		wire      []byte
		wantAck   uint64 // 0: the connection must be closed without an ack
		wantDrops int64
	}{
		{"single-data-frame", new(wireEnc).appendFrame(nil, &single, 0), 1, 0},
		{"json-first-byte", []byte(`{"k":1,"q":41,"f":0,"t":1}` + "\n"), 0, 1},
		{"v1-frame", v1, 0, 1},
		{"v2-frame", v2, 0, 1},
		{"delay-past-limit", new(wireEnc).appendFrame(nil, &late, 0), 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, b := tcpPair(t)
			bIn := sinkInbox(t, b)
			c, err := net.Dial("tcp", b.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(tc.wire); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			ack, _, _, err := new(wireDec).readFrameMulti(bufio.NewReader(c))
			if tc.wantAck != 0 {
				if err != nil || ack != tc.wantAck {
					t.Fatalf("reply ack = %d, err = %v; want an ack of %d", ack, err, tc.wantAck)
				}
				got := recvWithin(t, bIn(1), 5*time.Second)
				if p, ok := got.Payload.(bitp); !ok || !p.informed || got.EdgeID != single.EdgeID {
					t.Fatalf("arrived mangled: %+v", got)
				}
			} else if !errors.Is(err, io.EOF) {
				t.Fatalf("read from rejected connection: ack = %d, err = %v; want EOF", ack, err)
			}
			select {
			case m := <-bIn(1):
				t.Fatalf("unexpected delivery: %+v", m)
			case <-time.After(50 * time.Millisecond):
			}
			if got := b.dropsDecode.Load(); got != tc.wantDrops {
				t.Errorf("decode drops = %d, want %d", got, tc.wantDrops)
			}
		})
	}
}

// TestTCPFlushCoalescing checks batched writes: with a flush window, a burst
// of sends shares a handful of flushes instead of paying one per message.
func TestTCPFlushCoalescing(t *testing.T) {
	a, b := tcpPair(t)
	bIn := sinkInbox(t, b)
	a.SetFlushWindow(20 * time.Millisecond)
	const n = 64
	for i := 0; i < n; i++ {
		if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: i, Payload: bitp{}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got < n; got++ {
		recvWithin(t, bIn(1), 10*time.Second)
	}
	if f := a.WireFlushes(); f >= n/4 {
		t.Errorf("%d flushes for %d messages — writes are not batching", f, n)
	}
	if a.WireBytesOut() == 0 {
		t.Error("WireBytesOut = 0 after a delivered burst")
	}
}

// TestTCPBrokenConnImmediateRedial: when a write hits a dead connection, the
// failed write cycle re-queues toward a fresh connection at once, whose
// writer redials immediately — delivery well under two seconds proves no
// timer stands in between.
func TestTCPBrokenConnImmediateRedial(t *testing.T) {
	a, b := tcpPair(t)
	bIn := sinkInbox(t, b)

	if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, SentTick: 1, Payload: bitp{}}, 0); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, bIn(1), 5*time.Second) // connection now pooled
	// Acked too: a break counts whatever it leaves unacked as lost.
	if !pollUntil(5*time.Second, func() bool { return allAcked(a) }) {
		t.Fatal("first send never acked")
	}

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
	got := recvWithin(t, bIn(1), 4*time.Second)
	if got.SentTick != 2 {
		t.Fatalf("unexpected arrival %+v", got)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("redelivery took %v — the broken-conn path did not re-queue immediately", elapsed)
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
	ta, err := NewTCPTransport("127.0.0.1:0", left)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCPTransport("127.0.0.1:0", right)
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
