package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
)

// FuzzWireFrame checks the encoder half of the codec: any wireMessage the
// fuzzer constructs, with any cumulative ack, must round-trip the framing
// byte-exactly as a batch of one, the smallest frame the writer emits; the
// codec is payload-agnostic and byte-faithful on type names — except that a
// delay past maxWireDelayUS, which Send refuses, must decode as malformed.
func FuzzWireFrame(f *testing.F) {
	f.Add(uint8(1), 0, 1, 0, 1, 0, "", []byte(nil), uint64(0), uint64(0))
	f.Add(uint8(2), 255, -256, 12345, -7, 99, "live_test.bit", []byte("true"), uint64(4), uint64(4000))
	f.Add(uint8(0xFF), -1, -1, -1, -1, -1, "core.rumors", []byte{0x00, 0xFF, 0x7B}, uint64(1), uint64(1)<<63)
	f.Add(uint8(0), 1<<31, -1<<31, 0, 0, -1<<40, "x", bytes.Repeat([]byte{0x7B}, 200), ^uint64(0), ^uint64(0))

	f.Fuzz(func(t *testing.T, kind uint8, from, to, edge, latency, sentTick int,
		ptype string, payload []byte, ack, delayUS uint64) {
		w := wireMessage{
			Kind: kind, From: from, To: to, EdgeID: edge,
			Latency: latency, SentTick: sentTick, DelayUS: delayUS,
		}
		if ptype != "" || len(payload) > 0 {
			w.Payload = rawp{ptype, payload}
		}

		// Round trip, with a piggybacked ack.
		wire := frameOf(new(wireEnc), nil, w, ack)
		var dec wireDec
		gotAck, msgs, err := dec.readFrameMulti(bufio.NewReader(bytes.NewReader(wire)))
		if delayUS > maxWireDelayUS {
			if !errors.Is(err, errMalformedFrame) || len(msgs) > 0 {
				t.Fatalf("delay %d µs past the limit: %d messages, err %v; want malformed", delayUS, len(msgs), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if len(msgs) != 1 {
			t.Fatalf("frame decoded to %d messages; want 1", len(msgs))
		}
		if gotAck != ack {
			t.Fatalf("ack %d, want %d", gotAck, ack)
		}
		if got := msgs[0]; !sameMsg(got, w) {
			t.Errorf("round trip mutated the message:\n got %+v\nwant %+v", got, w)
		}
	})
}

// FuzzWireDecode is the adversarial half: where FuzzWireFrame can only
// produce well-formed frames (it drives the encoder), this target feeds raw
// connection streams straight to the decoder — truncated acks, payload-type
// references into an empty intern table, bodies past the frame limit — and
// checks the decoder's safety contract: it never panics, rejects malformed
// input with an error and no partial results, bounds its intern table, and
// every frame it does accept re-encodes and re-decodes to the same ack and
// messages on a fresh connection pair.
func FuzzWireDecode(f *testing.F) {
	frame := func(w *wireMessage, ack uint64) []byte {
		if w == nil {
			return appendAckFrame(nil, ack)
		}
		return frameOf(new(wireEnc), nil, *w, ack)
	}
	msg := &wireMessage{Kind: 1, From: 0, To: 1, EdgeID: 3,
		Latency: 2, SentTick: 7, DelayUS: 1000, Payload: rawp{"core.rumors", []byte{8, 2, 1, 3}}}
	f.Add(frame(msg, 9))               // well-formed data + ack
	f.Add(frame(nil, 1))               // ack-only frame
	f.Add(frame(nil, ^uint64(0)))      // the largest ack a uvarint holds
	f.Add([]byte(`{"kind":1}` + "\n")) // not this framing at all: unknown header byte

	// A two-frame stream: the first defines the payload type, the second
	// references it through the intern table.
	{
		var enc wireEnc
		s := frameOf(&enc, nil, *msg, 0)
		m2 := *msg
		m2.SentTick = 8
		f.Add(frameOf(&enc, s, m2, 0))
	}

	hdr := func(flags byte, body []byte) []byte {
		return append(binary.AppendUvarint([]byte{wireVersion | flags}, uint64(len(body))), body...)
	}
	dataPrefix := func(kind byte) []byte {
		body := []byte{1, kind}  // a batch of one
		for i := 0; i < 6; i++ { // from, to, edge, latency, tickDelta, delay
			body = binary.AppendVarint(body, 0)
		}
		return body
	}

	// Truncated ack: a uvarint whose continuation bit runs off the body.
	f.Add(hdr(wireFlagAck, []byte{0x80}))
	// Ack followed by trailing bytes with no batch flag.
	f.Add(hdr(wireFlagAck, []byte{3, 5}))
	// Unknown intern-table id: type code 7 references table[5] of an empty table.
	{
		body := binary.AppendUvarint(dataPrefix(1), 7)
		body = binary.AppendUvarint(body, 0) // payload length
		f.Add(hdr(wireFlagBatch, body))
	}
	// Payload length running past the end of the body.
	{
		body := append(dataPrefix(2), 1, 1, 'x') // define type "x"
		body = binary.AppendUvarint(body, 1000)
		f.Add(hdr(wireFlagBatch, body))
	}
	// Type definition whose name length overruns the body.
	{
		body := binary.AppendUvarint(dataPrefix(3), 1) // define
		body = binary.AppendUvarint(body, 200)         // nameLen > remaining
		f.Add(hdr(wireFlagBatch, body))
	}
	// Body length past the 4 MiB frame limit.
	f.Add(binary.AppendUvarint([]byte{wireVersion | wireFlagBatch}, maxWireBody+1))
	// Well-formed FrameBatch super-frame (three sub-messages + hoisted ack).
	batchFrame := func() []byte {
		var enc wireEnc
		msgs := []wireMessage{
			{Kind: 1, From: 0, To: 1, EdgeID: 3, Latency: 2, SentTick: 7,
				Payload: rawp{"core.rumors", []byte{8, 1, 1}}},
			{Kind: 1, From: 1, To: 2, EdgeID: 4, Latency: 1, SentTick: 7,
				Payload: rawp{"core.rumors", []byte{8, 1, 2}}},
			{Kind: 3, From: 2, To: 0, EdgeID: 5, Latency: 3, SentTick: 8, DelayUS: maxWireDelayUS},
		}
		b, _ := enc.appendBatchFrame(nil, msgs, 9)
		return b
	}
	f.Add(batchFrame())
	// A sub-message delay past the limit (2^40 µs, about 12.7 days): the
	// whole frame is malformed.
	{
		late := *msg
		late.DelayUS = 1 << 40
		f.Add(frame(&late, 0))
	}
	// Truncated batch: the count promises three sub-messages, the body ends
	// mid-way through the second.
	{
		b := batchFrame()
		f.Add(b[:len(b)-len(b)/2])
	}
	// Oversized batch count: claims ~2^40 sub-messages in a tiny body.
	f.Add(hdr(wireFlagBatch, binary.AppendUvarint(nil, 1<<40)))
	// Zero-count batch: the encoder never emits one; malformed.
	f.Add(hdr(wireFlagBatch, []byte{0}))
	// The batch flag beside version 3's data flag (0x1): malformed.
	{
		body := binary.AppendUvarint(dataPrefix(1), 0) // ptype none
		body = binary.AppendUvarint(body, 0)           // payload length
		f.Add(hdr(wireFlagBatch|0x01, body))
	}
	// Two frames on one stream: the second batch's sub-messages must
	// resolve the intern table and delta chain the first frame advanced.
	{
		var enc wireEnc
		s := frameOf(&enc, nil, *msg, 0)
		m2, m3 := *msg, *msg
		m2.SentTick, m3.SentTick = 8, 8
		s, _ = enc.appendBatchFrame(s, []wireMessage{m2, m3}, 5)
		f.Add(s)
	}
	// Intern-table exhaustion: one stream defining maxInternedTypes+1 fresh
	// types; the decoder must reject the frame that would overflow the table.
	{
		var enc wireEnc
		var s []byte
		for i := 0; i <= maxInternedTypes; i++ {
			m := wireMessage{Kind: 1, SentTick: i,
				Payload: rawp{fmt.Sprintf("t%02d", i), []byte("0")}}
			s = frameOf(&enc, s, m, 0)
		}
		f.Add(s)
	}
	// Version 3's single data frame (flag 0x1, no count): malformed.
	{
		body := binary.AppendUvarint(dataPrefix(1)[1:], 0) // ptype none
		body = binary.AppendUvarint(body, 0)               // payload length
		f.Add(hdr(0x01, body))
	}
	// Payload bytes after ptype 0: the encoder never emits them; malformed.
	{
		body := binary.AppendUvarint(dataPrefix(1), 0) // ptype none
		body = append(binary.AppendUvarint(body, 1), 'x')
		f.Add(hdr(wireFlagBatch, body))
	}

	f.Fuzz(func(t *testing.T, stream []byte) {
		br := bufio.NewReader(bytes.NewReader(stream))
		var dec wireDec
		for {
			ack, msgs, err := dec.readFrameMulti(br)
			if err != nil {
				// Rejection must be total: no partial results escape.
				if len(msgs) > 0 || ack != 0 {
					t.Fatalf("error %v returned partial results (%d msgs, ack %d)", err, len(msgs), ack)
				}
				return
			}
			if len(dec.types) > maxInternedTypes {
				t.Fatalf("intern table grew to %d entries past the cap", len(dec.types))
			}
			if len(msgs) == 0 && ack == 0 {
				continue // empty frame: a legal no-op
			}

			// Anything the decoder accepts must survive a re-encode /
			// re-decode round trip on a fresh connection pair, framed as
			// the writer frames it: batches carrying the ack on the first,
			// or an ack-only frame. Copy out of the decoder-owned buffers
			// first — the next readFrameMulti reuses them.
			want := make([]wireMessage, len(msgs))
			for i, m := range msgs {
				want[i] = outbound(m)
			}
			var enc2 wireEnc
			var re []byte
			if len(want) == 0 {
				re = appendAckFrame(nil, ack)
			}
			for rest, a := want, ack; len(rest) > 0; a = 0 {
				var n int
				re, n = enc2.appendBatchFrame(re, rest, a)
				rest = rest[n:]
			}
			var dec2 wireDec
			br2 := bufio.NewReader(bytes.NewReader(re))
			var got []wireMessage
			ack2 := uint64(0)
			for {
				a, ms, err := dec2.readFrameMulti(br2)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("re-encode of accepted frame does not decode: %v", err)
				}
				ack2 = max(ack2, a)
				for _, m := range ms {
					got = append(got, outbound(m))
				}
			}
			if ack2 != ack {
				t.Fatalf("re-encode changed the ack: %d -> %d", ack, ack2)
			}
			if len(got) != len(want) {
				t.Fatalf("re-encode changed the message count: %d -> %d", len(want), len(got))
			}
			for i := range got {
				if !sameMsg(got[i], want[i]) {
					t.Fatalf("re-encode round trip mutated sub-message %d:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
		}
	})
}
