package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// batchMsgs builds n wireMessages with consecutive seqs and near-monotonic
// ticks, the shape a real aggregation pass hands appendBatchFrame.
func batchMsgs(n int, firstSeq uint64) []wireMessage {
	msgs := make([]wireMessage, n)
	for i := range msgs {
		msgs[i] = wireMessage{
			Kind: 1, Seq: firstSeq + uint64(i),
			From: i, To: i + 1, EdgeID: i, Latency: 1 + i%3, SentTick: 10 + i/4,
			PayloadType: "live_test.bit", Payload: []byte(`true`),
		}
	}
	return msgs
}

// TestWireBatchRoundTrip encodes a FrameBatch super-frame with piggybacked
// acks and decodes it back: every sub-message field survives, the acks come
// back sorted, and the decoder flags the frame as a batch.
func TestWireBatchRoundTrip(t *testing.T) {
	msgs := batchMsgs(17, 100)
	// Make a few sub-messages adversarial: out-of-run seq, negative fields.
	msgs[5] = wireMessage{Kind: 0xFE, Seq: 1 << 40, From: -1, To: -9, EdgeID: -2, Latency: -5, SentTick: -1 << 20}
	acks := []uint64{42, 7, 9000}

	var enc wireEnc
	wire := enc.appendBatchFrame(nil, msgs, append([]uint64(nil), acks...))

	br := bufio.NewReader(bytes.NewReader(wire))
	var dec wireDec
	gotAcks, got, batch, err := dec.readFrameMulti(br)
	if err != nil {
		t.Fatal(err)
	}
	if !batch {
		t.Fatal("decoder did not flag a batch frame")
	}
	wantAcks := []uint64{7, 42, 9000}
	if len(gotAcks) != len(wantAcks) {
		t.Fatalf("acks %v, want %v", gotAcks, wantAcks)
	}
	for i := range wantAcks {
		if gotAcks[i] != wantAcks[i] {
			t.Fatalf("acks %v, want %v", gotAcks, wantAcks)
		}
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d sub-messages, want %d", len(got), len(msgs))
	}
	for i, want := range msgs {
		g := got[i]
		if g.Kind != want.Kind || g.Seq != want.Seq || g.From != want.From ||
			g.To != want.To || g.EdgeID != want.EdgeID || g.Latency != want.Latency ||
			g.SentTick != want.SentTick || g.PayloadType != want.PayloadType ||
			!bytes.Equal(g.Payload, want.Payload) {
			t.Errorf("sub-message %d: got %+v want %+v", i, g, want)
		}
	}
	if _, _, _, err := dec.readFrameMulti(br); err == nil {
		t.Error("expected EOF after the batch frame")
	}
}

// TestWireBatchSharesConnectionState interleaves single frames and batch
// frames through one encoder/decoder pair: the intern table and the
// Seq/SentTick delta chains are connection state, shared across both frame
// shapes in stream order.
func TestWireBatchSharesConnectionState(t *testing.T) {
	single := wireMessage{Kind: 1, Seq: 1, From: 0, To: 1, EdgeID: 0, Latency: 1, SentTick: 9,
		PayloadType: "live_test.bit", Payload: []byte(`true`)}
	batch := batchMsgs(8, 2) // references the type `single` defined
	tail := wireMessage{Kind: 2, Seq: 10, From: 3, To: 4, EdgeID: 5, Latency: 6, SentTick: 12,
		PayloadType: "live_test.bit", Payload: []byte(`false`)}

	var enc wireEnc
	wire := enc.appendFrame(nil, &single, nil)
	defineCost := len(wire)
	wire = enc.appendBatchFrame(wire, batch, nil)
	wire = enc.appendFrame(wire, &tail, nil)

	// The batch must reference the interned type, never re-define it: 8
	// sub-messages in well under 8 single defining frames' worth of bytes.
	if batchCost := len(wire) - defineCost; batchCost >= 8*defineCost {
		t.Fatalf("batch of 8 cost %dB — interning/deltas not shared (single define frame was %dB)", batchCost, defineCost)
	}

	br := bufio.NewReader(bytes.NewReader(wire))
	var dec wireDec
	for i, wantLen := range []int{1, 8, 1} {
		_, msgs, isBatch, err := dec.readFrameMulti(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(msgs) != wantLen || isBatch != (wantLen > 1) {
			t.Fatalf("frame %d: %d msgs batch=%v, want %d", i, len(msgs), isBatch, wantLen)
		}
		for j, g := range msgs {
			if g.PayloadType != "live_test.bit" {
				t.Fatalf("frame %d sub %d: PayloadType %q", i, j, g.PayloadType)
			}
		}
		if wantLen == 1 && i == 2 && (msgs[0].Seq != tail.Seq || msgs[0].SentTick != tail.SentTick) {
			t.Fatalf("tail frame decoded %+v, want %+v", msgs[0], tail)
		}
	}
}

// TestWireBatchAmortization checks the point of the super-frame: a batch of k
// small messages costs materially less than k single frames carrying the
// identical messages.
func TestWireBatchAmortization(t *testing.T) {
	const k = 64
	msgs := batchMsgs(k, 1)

	var encSingle wireEnc
	var singles []byte
	for i := range msgs {
		singles = encSingle.appendFrame(singles, &msgs[i], nil)
	}
	var encBatch wireEnc
	batched := encBatch.appendBatchFrame(nil, msgs, nil)

	if len(batched) >= len(singles) {
		t.Fatalf("batch of %d = %dB, singles = %dB — no amortization", k, len(batched), len(singles))
	}
	// Each single frame pays header+len (2B) the batch pays once; expect at
	// least k extra bytes saved.
	if len(singles)-len(batched) < k {
		t.Errorf("batch saved only %dB over %d messages", len(singles)-len(batched), k)
	}

	// The steady-state cost of the push-pull request a saturated connection
	// carries: a full super-frame on a warm connection (payload type
	// interned, seq and tick chains advancing by one). Encoding is
	// deterministic, so the size is pinned exactly: 10 B per sub-message
	// (kind, seq delta, from, to, edge, latency, tick delta, type ref,
	// payload length, payload) under 5 B of frame header, body length and
	// count. A codec change that moves wire bytes per message must move this.
	pt, data, err := encodePayload(bitp{informed: true})
	if err != nil {
		t.Fatal(err)
	}
	full := make([]wireMessage, maxBatchMsgs)
	var enc wireEnc
	var frame []byte
	for round := 0; round < 2; round++ { // first frame warms the connection
		for i := range full {
			n := round*maxBatchMsgs + i
			full[i] = wireMessage{Kind: uint8(MsgRequest), Seq: uint64(1 + n), From: 0, To: 1,
				EdgeID: 1, Latency: 1, SentTick: n, PayloadType: pt, Payload: data}
		}
		frame = enc.appendBatchFrame(frame[:0], full, nil)
	}
	if want := 10*maxBatchMsgs + 5; len(frame) != want {
		t.Errorf("steady-state full batch = %dB (%.3f B/msg), want exactly %dB",
			len(frame), float64(len(frame))/maxBatchMsgs, want)
	}
}

// TestWireBatchMalformed covers the batch-specific rejection paths: both
// batch and data flags set, a zero count, a count exceeding the body size, a
// truncated sub-message run, and trailing garbage after the last sub-message.
func TestWireBatchMalformed(t *testing.T) {
	var enc wireEnc
	good := enc.appendBatchFrame(nil, batchMsgs(3, 1), nil)

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
		"batch and data flags together": reflag(good, wireFlagBatch|wireFlagData),
		"zero count":                    zeroCount,
		"count exceeds body":            hugeCount,
		"truncated sub-messages":        good[:len(good)-4],
	}
	for name, wire := range cases {
		br := bufio.NewReader(bytes.NewReader(wire))
		var dec wireDec
		if _, _, _, err := dec.readFrameMulti(br); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// The single-frame wrapper must refuse batch frames outright.
	br := bufio.NewReader(bytes.NewReader(good))
	var dec wireDec
	if _, _, err := dec.readFrame(br, &wireMessage{}); !errors.Is(err, errMalformedFrame) {
		t.Errorf("readFrame on batch frame: err = %v, want errMalformedFrame", err)
	}
}

// TestWireBatchDecodeRollback checks the all-or-nothing decode contract: a
// batch whose tail is corrupt must not advance the connection's delta chains
// or intern table, so a fuzzing oracle (or a tolerant caller) sees state
// only from frames that decoded whole.
func TestWireBatchDecodeRollback(t *testing.T) {
	var enc wireEnc
	first := enc.appendFrame(nil, &wireMessage{Kind: 1, Seq: 5, From: 1, To: 2, EdgeID: 3, Latency: 4, SentTick: 7}, nil)
	bad := enc.appendBatchFrame(nil, batchMsgs(4, 6), nil)
	bad = bad[:len(bad)-3] // corrupt the final sub-message

	var dec wireDec
	if _, msgs, _, err := dec.readFrameMulti(bufio.NewReader(bytes.NewReader(first))); err != nil || len(msgs) != 1 {
		t.Fatalf("good frame: msgs=%d err=%v", len(msgs), err)
	}
	seq, tick, names := dec.lastSeq, dec.lastTick, len(dec.names)
	if _, _, _, err := dec.readFrameMulti(bufio.NewReader(bytes.NewReader(bad))); err == nil {
		t.Fatal("corrupt batch decoded without error")
	}
	if dec.lastSeq != seq || dec.lastTick != tick || len(dec.names) != names {
		t.Fatalf("decoder state advanced on a failed decode: seq %d→%d tick %d→%d names %d→%d",
			seq, dec.lastSeq, tick, dec.lastTick, names, len(dec.names))
	}
}

// TestWireBatchLarge pushes a batch through the size guards: a batch of
// maxBatchMsgs sub-messages with distinct payload types stays within one
// frame and round-trips.
func TestWireBatchLarge(t *testing.T) {
	msgs := batchMsgs(maxBatchMsgs, 1)
	for i := 0; i < 8; i++ {
		msgs[i].PayloadType = fmt.Sprintf("live_test.t%d", i)
	}
	var enc wireEnc
	wire := enc.appendBatchFrame(nil, msgs, nil)
	if len(wire) > maxWireBody {
		t.Fatalf("max batch encodes to %dB, beyond maxWireBody %d", len(wire), maxWireBody)
	}
	var dec wireDec
	_, got, batch, err := dec.readFrameMulti(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil || !batch || len(got) != maxBatchMsgs {
		t.Fatalf("decode: msgs=%d batch=%v err=%v", len(got), batch, err)
	}
}
