package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// batchMsgs builds n wireMessages with near-monotonic ticks, the shape a
// real aggregation pass hands appendBatchFrame.
func batchMsgs(n int) []wireMessage {
	msgs := make([]wireMessage, n)
	for i := range msgs {
		msgs[i] = wireMessage{
			Kind: 1,
			From: i, To: i + 1, EdgeID: i, Latency: 1 + i%3, SentTick: 10 + i/4,
			Payload: rawp{"live_test.bit", []byte(`true`)},
		}
	}
	return msgs
}

// TestWireBatchRoundTrip encodes a FrameBatch super-frame with a
// piggybacked ack and decodes it back: every sub-message field survives, and
// so does the ack.
func TestWireBatchRoundTrip(t *testing.T) {
	msgs := batchMsgs(17)
	// Make a sub-message adversarial: negative fields, a tick far out of run.
	msgs[5] = wireMessage{Kind: 0xFE, From: -1, To: -9, EdgeID: -2, Latency: -5, SentTick: -1 << 20}
	const ack = 9000

	var enc wireEnc
	wire, n := enc.appendBatchFrame(nil, msgs, ack)
	if n != len(msgs) {
		t.Fatalf("batch took %d of %d messages", n, len(msgs))
	}

	br := bufio.NewReader(bytes.NewReader(wire))
	var dec wireDec
	gotAck, got, err := dec.readFrameMulti(br)
	if err != nil {
		t.Fatal(err)
	}
	if gotAck != ack {
		t.Fatalf("ack %d, want %d", gotAck, ack)
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d sub-messages, want %d", len(got), len(msgs))
	}
	for i, want := range msgs {
		if g := got[i]; !sameMsg(g, want) {
			t.Errorf("sub-message %d: got %+v want %+v", i, g, want)
		}
	}
	if _, _, err := dec.readFrameMulti(br); err == nil {
		t.Error("expected EOF after the batch frame")
	}
}

// TestWireBatchSharesConnectionState interleaves batches of one and larger
// batches through one encoder/decoder pair: the intern table and the
// SentTick delta chain are connection state, shared across frames in stream
// order.
func TestWireBatchSharesConnectionState(t *testing.T) {
	single := wireMessage{Kind: 1, From: 0, To: 1, EdgeID: 0, Latency: 1, SentTick: 9,
		Payload: rawp{"live_test.bit", []byte(`true`)}}
	batch := batchMsgs(8) // references the type `single` defined
	tail := wireMessage{Kind: 2, From: 3, To: 4, EdgeID: 5, Latency: 6, SentTick: 12,
		Payload: rawp{"live_test.bit", []byte(`false`)}}

	var enc wireEnc
	wire := frameOf(&enc, nil, single, 0)
	defineCost := len(wire)
	wire, _ = enc.appendBatchFrame(wire, batch, 0)
	wire = frameOf(&enc, wire, tail, 0)

	// The batch must reference the interned type, never re-define it: 8
	// sub-messages in well under 8 single defining frames' worth of bytes.
	if batchCost := len(wire) - defineCost; batchCost >= 8*defineCost {
		t.Fatalf("batch of 8 cost %dB — interning/deltas not shared (single define frame was %dB)", batchCost, defineCost)
	}

	br := bufio.NewReader(bytes.NewReader(wire))
	var dec wireDec
	for i, wantLen := range []int{1, 8, 1} {
		_, msgs, err := dec.readFrameMulti(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(msgs) != wantLen {
			t.Fatalf("frame %d: %d msgs, want %d", i, len(msgs), wantLen)
		}
		for j, g := range msgs {
			if g.typ == nil || g.typ.name != "live_test.bit" {
				t.Fatalf("frame %d sub %d: payload type %+v", i, j, g.typ)
			}
		}
		if wantLen == 1 && i == 2 && msgs[0].SentTick != tail.SentTick {
			t.Fatalf("tail frame decoded %+v, want %+v", msgs[0], tail)
		}
	}
}

// TestWireBatchAmortization checks the point of the super-frame: a batch of k
// small messages costs materially less than k batches of one carrying the
// identical messages.
func TestWireBatchAmortization(t *testing.T) {
	const k = 64
	msgs := batchMsgs(k)

	singles := encodeFrames(new(wireEnc), msgs)
	batched, _ := new(wireEnc).appendBatchFrame(nil, msgs, 0)

	if len(batched) >= len(singles) {
		t.Fatalf("batch of %d = %dB, singles = %dB — no amortization", k, len(batched), len(singles))
	}
	// Each batch of one pays header, length and count (3B) the batch pays
	// once; expect at least k extra bytes saved.
	if len(singles)-len(batched) < k {
		t.Errorf("batch saved only %dB over %d messages", len(singles)-len(batched), k)
	}

	// The steady-state cost of the push-pull request a saturated connection
	// carries: a full super-frame on a warm connection (payload type
	// interned, the tick chain advancing by one, no delay). Encoding is
	// deterministic, so the size is pinned exactly: 10 B per sub-message
	// (kind, from, to, edge, latency, tick delta, delay, type ref, payload
	// length, payload) under 5 B of frame header, body length and count. A
	// codec change that moves wire bytes per message must move this.
	full := make([]wireMessage, maxBatchMsgs)
	var enc wireEnc
	var frame []byte
	for round := 0; round < 2; round++ { // first frame warms the connection
		for i := range full {
			n := round*maxBatchMsgs + i
			full[i] = wireMessage{Kind: uint8(MsgRequest), From: 0, To: 1,
				EdgeID: 1, Latency: 1, SentTick: n, Payload: bitp{informed: true}}
		}
		frame, _ = enc.appendBatchFrame(frame[:0], full, 0)
	}
	if want := 10*maxBatchMsgs + 5; len(frame) != want {
		t.Errorf("steady-state full batch = %dB (%.3f B/msg), want exactly %dB",
			len(frame), float64(len(frame))/maxBatchMsgs, want)
	}
}

// TestWireBatchMalformed covers the batch-specific rejection paths: the
// batch flag beside version 3's data flag, a zero count, a count exceeding
// the body size, and a truncated sub-message run.
func TestWireBatchMalformed(t *testing.T) {
	good, _ := new(wireEnc).appendBatchFrame(nil, batchMsgs(3), 0)

	reflag := func(wire []byte, flags byte) []byte {
		out := append([]byte(nil), wire...)
		out[0] = wireVersion | flags
		return out
	}
	var zeroCount []byte
	zeroCount = append(zeroCount, wireVersion|wireFlagBatch)
	zeroCount = append(zeroCount, 1, 0) // bodyLen=1, count=0
	var hugeCount []byte
	hugeCount = append(hugeCount, wireVersion|wireFlagBatch)
	body := binary.AppendUvarint(nil, 1<<20) // count far beyond the body
	hugeCount = binary.AppendUvarint(hugeCount, uint64(len(body)))
	hugeCount = append(hugeCount, body...)

	cases := map[string][]byte{
		"batch and retired data flags": reflag(good, wireFlagBatch|0x01),
		"zero count":                   zeroCount,
		"count exceeds body":           hugeCount,
		"truncated sub-messages":       good[:len(good)-4],
	}
	for name, wire := range cases {
		br := bufio.NewReader(bytes.NewReader(wire))
		var dec wireDec
		if _, _, err := dec.readFrameMulti(br); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestWireBatchDecodeRollback checks the all-or-nothing decode contract: a
// batch whose tail is corrupt must not advance the connection's delta chain
// or intern table, so a fuzzing oracle (or a tolerant caller) sees state
// only from frames that decoded whole.
func TestWireBatchDecodeRollback(t *testing.T) {
	var enc wireEnc
	first := frameOf(&enc, nil, wireMessage{Kind: 1, From: 1, To: 2, EdgeID: 3, Latency: 4, SentTick: 7}, 0)
	bad, _ := enc.appendBatchFrame(nil, batchMsgs(4), 0)
	bad = bad[:len(bad)-3] // corrupt the final sub-message

	var dec wireDec
	if _, msgs, err := dec.readFrameMulti(bufio.NewReader(bytes.NewReader(first))); err != nil || len(msgs) != 1 {
		t.Fatalf("good frame: msgs=%d err=%v", len(msgs), err)
	}
	tick, types := dec.lastTick, len(dec.types)
	if _, _, err := dec.readFrameMulti(bufio.NewReader(bytes.NewReader(bad))); err == nil {
		t.Fatal("corrupt batch decoded without error")
	}
	if dec.lastTick != tick || len(dec.types) != types {
		t.Fatalf("decoder state advanced on a failed decode: tick %d→%d types %d→%d",
			tick, dec.lastTick, types, len(dec.types))
	}
}

// TestWireBatchLarge pushes batches through the size guards: a batch takes
// at most maxBatchMsgs sub-messages, even with distinct payload types, and
// closes once its body reaches maxBatchBytes; each stays within one frame
// and round-trips.
func TestWireBatchLarge(t *testing.T) {
	msgs := batchMsgs(maxBatchMsgs + 1)
	for i := 0; i < 8; i++ {
		msgs[i].Payload = rawp{fmt.Sprintf("live_test.t%d", i), []byte(`true`)}
	}
	big := batchMsgs(4)
	for i := range big {
		big[i].Payload = rawp{"live_test.big", make([]byte, maxBatchBytes/2)}
	}
	for _, tc := range []struct {
		name string
		msgs []wireMessage
		want int
	}{
		{"count", msgs, maxBatchMsgs},
		{"bytes", big, 2},
	} {
		var enc wireEnc
		wire, n := enc.appendBatchFrame(nil, tc.msgs, 0)
		if n != tc.want {
			t.Fatalf("%s: batch took %d messages, want %d", tc.name, n, tc.want)
		}
		if len(wire) > maxWireBody {
			t.Fatalf("%s: batch encodes to %dB, beyond maxWireBody %d", tc.name, len(wire), maxWireBody)
		}
		var dec wireDec
		_, got, err := dec.readFrameMulti(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil || len(got) != n {
			t.Fatalf("%s: decode: msgs=%d err=%v", tc.name, len(got), err)
		}
	}
}
