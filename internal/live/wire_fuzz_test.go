package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// FuzzWireFrame checks the encoder half of the codec: any wireMessage the
// fuzzer constructs, with any cumulative ack, must round-trip the framing
// byte-exactly — as a single data frame or as a FrameBatch of one, the shape
// the writer emits; the codec is payload-agnostic and byte-faithful on type
// names — except that a delay past maxWireDelayUS, which Send refuses, must
// decode as malformed.
func FuzzWireFrame(f *testing.F) {
	f.Add(uint8(1), 0, 1, 0, 1, 0, "", []byte(nil), uint64(0), uint64(0), false)
	f.Add(uint8(2), 255, -256, 12345, -7, 99, "live_test.bit", []byte("true"), uint64(4), uint64(4000), true)
	f.Add(uint8(0xFF), -1, -1, -1, -1, -1, "core.rumors", []byte{0x00, 0xFF, 0x7B}, uint64(1), uint64(1)<<63, false)
	f.Add(uint8(0), 1<<31, -1<<31, 0, 0, -1<<40, "x", bytes.Repeat([]byte{0x7B}, 64), ^uint64(0), ^uint64(0), true)

	f.Fuzz(func(t *testing.T, kind uint8, from, to, edge, latency, sentTick int,
		ptype string, payload []byte, ack, delayUS uint64, batch bool) {
		w := wireMessage{
			Kind: kind, From: from, To: to, EdgeID: edge,
			Latency: latency, SentTick: sentTick, DelayUS: delayUS,
		}
		if len(payload) > 0 {
			// A payload without a type never occurs on the real wire (the
			// codec seam always pairs them); mirror that invariant.
			if ptype == "" {
				ptype = "fuzz"
			}
			w.PayloadType, w.Payload = ptype, payload
		}

		// Round trip, with a piggybacked ack.
		var enc wireEnc
		var wire []byte
		if batch {
			wire = enc.appendBatchFrame(nil, []wireMessage{w}, ack)
		} else {
			wire = enc.appendFrame(nil, &w, ack)
		}
		var dec wireDec
		gotAck, msgs, gotBatch, err := dec.readFrameMulti(bufio.NewReader(bytes.NewReader(wire)))
		if delayUS > maxWireDelayUS {
			if !errors.Is(err, errMalformedFrame) || len(msgs) > 0 {
				t.Fatalf("delay %d µs past the limit: %d messages, err %v; want malformed", delayUS, len(msgs), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if len(msgs) != 1 || gotBatch != batch {
			t.Fatalf("frame decoded to %d messages, batch %v; want 1, batch %v", len(msgs), gotBatch, batch)
		}
		if gotAck != ack {
			t.Fatalf("ack %d, want %d", gotAck, ack)
		}
		got := msgs[0]
		if got.Kind != w.Kind || got.From != w.From ||
			got.To != w.To || got.EdgeID != w.EdgeID || got.Latency != w.Latency ||
			got.SentTick != w.SentTick || got.DelayUS != w.DelayUS ||
			got.PayloadType != w.PayloadType || !bytes.Equal(got.Payload, w.Payload) {
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
		var enc wireEnc
		return enc.appendFrame(nil, w, ack)
	}
	msg := &wireMessage{Kind: 1, From: 0, To: 1, EdgeID: 3,
		Latency: 2, SentTick: 7, DelayUS: 1000, PayloadType: "core.rumors", Payload: []byte(`{"x":1}`)}
	f.Add(frame(msg, 9))               // well-formed data + ack
	f.Add(frame(nil, 1))               // ack-only frame
	f.Add(frame(nil, ^uint64(0)))      // the largest ack a uvarint holds
	f.Add([]byte(`{"kind":1}` + "\n")) // not this framing at all: unknown header byte

	// A two-frame stream: the first defines the payload type, the second
	// references it through the intern table.
	{
		var enc wireEnc
		s := enc.appendFrame(nil, msg, 0)
		m2 := *msg
		m2.SentTick = 8
		f.Add(enc.appendFrame(s, &m2, 0))
	}

	hdr := func(flags byte, body []byte) []byte {
		return append(binary.AppendUvarint([]byte{wireVersion | flags}, uint64(len(body))), body...)
	}
	dataPrefix := func(kind byte) []byte {
		body := []byte{kind}
		for i := 0; i < 6; i++ { // from, to, edge, latency, tickDelta, delay
			body = binary.AppendVarint(body, 0)
		}
		return body
	}

	// Truncated ack: a uvarint whose continuation bit runs off the body.
	f.Add(hdr(wireFlagAck, []byte{0x80}))
	// Ack followed by trailing bytes with no data flag.
	f.Add(hdr(wireFlagAck, []byte{3, 5}))
	// Unknown intern-table id: type code 7 references table[5] of an empty table.
	{
		body := binary.AppendUvarint(dataPrefix(1), 7)
		body = binary.AppendUvarint(body, 0) // payload length
		f.Add(hdr(wireFlagData, body))
	}
	// Payload length running past the end of the body.
	{
		body := binary.AppendUvarint(dataPrefix(2), 0) // no payload type
		body = binary.AppendUvarint(body, 1000)
		f.Add(hdr(wireFlagData, body))
	}
	// Type definition whose name length overruns the body.
	{
		body := binary.AppendUvarint(dataPrefix(3), 1) // define
		body = binary.AppendUvarint(body, 200)         // nameLen > remaining
		f.Add(hdr(wireFlagData, body))
	}
	// Body length past the 4 MiB frame limit.
	f.Add(binary.AppendUvarint([]byte{wireVersion | wireFlagData}, maxWireBody+1))
	// Well-formed FrameBatch super-frame (three sub-messages + hoisted ack).
	batchFrame := func() []byte {
		var enc wireEnc
		msgs := []wireMessage{
			{Kind: 1, From: 0, To: 1, EdgeID: 3, Latency: 2, SentTick: 7,
				PayloadType: "core.rumors", Payload: []byte(`{"x":1}`)},
			{Kind: 1, From: 1, To: 2, EdgeID: 4, Latency: 1, SentTick: 7,
				PayloadType: "core.rumors", Payload: []byte(`{"x":2}`)},
			{Kind: 3, From: 2, To: 0, EdgeID: 5, Latency: 3, SentTick: 8, DelayUS: maxWireDelayUS},
		}
		return enc.appendBatchFrame(nil, msgs, 9)
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
	// Batch and data flags together: contradictory body shape; malformed.
	{
		body := append(binary.AppendUvarint(nil, 1), dataPrefix(1)...)
		body = binary.AppendUvarint(body, 0) // ptype none
		body = binary.AppendUvarint(body, 0) // payload length
		f.Add(hdr(wireFlagBatch|wireFlagData, body))
	}
	// A single frame followed by a batch on the same stream: the batch's
	// sub-messages must resolve the intern table and delta chains the first
	// frame advanced.
	{
		var enc wireEnc
		s := enc.appendFrame(nil, msg, 0)
		m2, m3 := *msg, *msg
		m2.SentTick, m3.SentTick = 8, 8
		f.Add(enc.appendBatchFrame(s, []wireMessage{m2, m3}, 5))
	}
	// Intern-table exhaustion: one stream defining maxInternedTypes+1 fresh
	// types; the decoder must reject the frame that would overflow the table.
	{
		var enc wireEnc
		var s []byte
		for i := 0; i <= maxInternedTypes; i++ {
			m := wireMessage{Kind: 1, SentTick: i,
				PayloadType: fmt.Sprintf("t%02d", i), Payload: []byte("0")}
			s = enc.appendFrame(s, &m, 0)
		}
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, stream []byte) {
		br := bufio.NewReader(bytes.NewReader(stream))
		var dec wireDec
		for {
			ack, msgs, batch, err := dec.readFrameMulti(br)
			if err != nil {
				// Rejection must be total: no partial results escape.
				if len(msgs) > 0 || ack != 0 {
					t.Fatalf("error %v returned partial results (%d msgs, ack %d)", err, len(msgs), ack)
				}
				return
			}
			if len(dec.names) > maxInternedTypes {
				t.Fatalf("intern table grew to %d entries past the cap", len(dec.names))
			}
			if batch && len(msgs) == 0 {
				t.Fatal("decoder accepted an empty batch frame")
			}
			if len(msgs) == 0 && ack == 0 {
				continue // empty frame: a legal no-op
			}

			// Anything the decoder accepts must survive a re-encode /
			// re-decode round trip on a fresh connection pair — single frames
			// through appendFrame, super-frames through appendBatchFrame. Copy
			// out of the decoder-owned buffers first — the next readFrameMulti
			// reuses them.
			msgCopy := make([]wireMessage, len(msgs))
			for i, m := range msgs {
				msgCopy[i] = m
				msgCopy[i].Payload = append([]byte(nil), m.Payload...)
			}
			var enc2 wireEnc
			var re []byte
			switch {
			case batch:
				re = enc2.appendBatchFrame(nil, msgCopy, ack)
			case len(msgCopy) == 1:
				re = enc2.appendFrame(nil, &msgCopy[0], ack)
			default:
				re = enc2.appendFrame(nil, nil, ack)
			}
			var dec2 wireDec
			ack2, msgs2, batch2, err := dec2.readFrameMulti(bufio.NewReader(bytes.NewReader(re)))
			if err != nil {
				t.Fatalf("re-encode of accepted frame does not decode: %v", err)
			}
			if batch2 != batch || len(msgs2) != len(msgCopy) {
				t.Fatalf("re-encode changed shape: batch %v→%v, msgs %d→%d", batch, batch2, len(msgCopy), len(msgs2))
			}
			if ack2 != ack {
				t.Fatalf("re-encode changed the ack: %d -> %d", ack, ack2)
			}
			for i := range msgs2 {
				got, want := msgs2[i], msgCopy[i]
				if got.Kind != want.Kind || got.From != want.From ||
					got.To != want.To || got.EdgeID != want.EdgeID || got.Latency != want.Latency ||
					got.SentTick != want.SentTick || got.DelayUS != want.DelayUS ||
					got.PayloadType != want.PayloadType || !bytes.Equal(got.Payload, want.Payload) {
					t.Fatalf("re-encode round trip mutated sub-message %d:\n got %+v\nwant %+v", i, got, want)
				}
			}
		}
	})
}
