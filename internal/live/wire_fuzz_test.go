package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzWireFrame checks the encoder half of the codec: any wireMessage the
// fuzzer constructs must round-trip the framing byte-exactly — the codec is
// payload-agnostic and byte-faithful on type names.
func FuzzWireFrame(f *testing.F) {
	f.Add(uint8(1), uint64(1), 0, 1, 0, 1, 0, "", []byte(nil), uint64(0), uint64(0))
	f.Add(uint8(2), uint64(1)<<40, 255, -256, 12345, -7, 99, "live_test.bit", []byte("true"), uint64(3), uint64(4))
	f.Add(uint8(0xFF), uint64(0), -1, -1, -1, -1, -1, "core.rumors", []byte{0x00, 0xFF, 0x7B}, uint64(1), uint64(1))
	f.Add(uint8(0), uint64(1<<63), 1<<31, -1<<31, 0, 0, -1<<40, "x", bytes.Repeat([]byte{0x7B}, 64), uint64(9), uint64(90))

	f.Fuzz(func(t *testing.T, kind uint8, seq uint64, from, to, edge, latency, sentTick int,
		ptype string, payload []byte, ack1, ack2 uint64) {
		w := wireMessage{
			Kind: kind, Seq: seq, From: from, To: to, EdgeID: edge,
			Latency: latency, SentTick: sentTick,
		}
		if len(payload) > 0 {
			// A payload without a type never occurs on the real wire (the
			// codec seam always pairs them); mirror that invariant.
			if ptype == "" {
				ptype = "fuzz"
			}
			w.PayloadType, w.Payload = ptype, payload
		}

		// Round trip, with a piggybacked ack pair.
		var enc wireEnc
		wire := enc.appendFrame(nil, &w, []uint64{ack1, ack2})
		var dec wireDec
		var got wireMessage
		acks, hasData, err := dec.readFrame(bufio.NewReader(bytes.NewReader(wire)), &got)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if !hasData {
			t.Fatal("frame lost its data section")
		}
		lo, hi := ack1, ack2
		if lo > hi {
			lo, hi = hi, lo
		}
		if len(acks) != 2 || acks[0] != lo || acks[1] != hi {
			t.Fatalf("ack batch %v from (%d, %d)", acks, ack1, ack2)
		}
		if got.Kind != w.Kind || got.Seq != w.Seq || got.From != w.From ||
			got.To != w.To || got.EdgeID != w.EdgeID || got.Latency != w.Latency ||
			got.SentTick != w.SentTick || got.PayloadType != w.PayloadType ||
			!bytes.Equal(got.Payload, w.Payload) {
			t.Errorf("round trip mutated the message:\n got %+v\nwant %+v", got, w)
		}
	})
}

// FuzzWireDecode is the adversarial half: where FuzzWireFrame can only
// produce well-formed frames (it drives the encoder), this target feeds raw
// connection streams straight to the decoder — truncated ack blocks, ack
// counts larger than the body, payload-type references into an empty intern
// table, bodies past the frame limit — and checks the decoder's safety
// contract: it never panics, rejects malformed input with an error and no
// partial results, bounds its intern table, keeps ack batches ascending, and
// every frame it does accept re-encodes and re-decodes to the same message
// on a fresh connection pair.
func FuzzWireDecode(f *testing.F) {
	frame := func(w *wireMessage, acks []uint64) []byte {
		var enc wireEnc
		return enc.appendFrame(nil, w, acks)
	}
	msg := &wireMessage{Kind: 1, Seq: 5, From: 0, To: 1, EdgeID: 3,
		Latency: 2, SentTick: 7, PayloadType: "core.rumors", Payload: []byte(`{"x":1}`)}
	f.Add(frame(msg, []uint64{3, 4, 9})) // well-formed data + acks
	f.Add(frame(nil, []uint64{1}))       // ack-only frame
	f.Add([]byte(`{"kind":1}` + "\n"))   // not this framing at all: unknown header byte

	// A two-frame stream: the first defines the payload type, the second
	// references it through the intern table.
	{
		var enc wireEnc
		s := enc.appendFrame(nil, msg, nil)
		m2 := *msg
		m2.Seq, m2.SentTick = 6, 8
		f.Add(enc.appendFrame(s, &m2, nil))
	}

	hdr := func(flags byte, body []byte) []byte {
		return append(binary.AppendUvarint([]byte{wireVersion | flags}, uint64(len(body))), body...)
	}
	dataPrefix := func(kind byte) []byte {
		body := []byte{kind}
		for i := 0; i < 6; i++ { // seqDelta, from, to, edge, latency, tickDelta
			body = binary.AppendVarint(body, 0)
		}
		return body
	}

	// Truncated ack block: the count says three acks, the body ends after one.
	f.Add([]byte{wireVersion | wireFlagAcks, 2, 3, 5})
	// Oversized ack count: claims ~2^40 acks in a six-byte body.
	f.Add(hdr(wireFlagAcks, binary.AppendUvarint(nil, 1<<40)))
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
	// Well-formed FrameBatch super-frame (three sub-messages + hoisted acks).
	batchFrame := func() []byte {
		var enc wireEnc
		msgs := []wireMessage{
			{Kind: 1, Seq: 5, From: 0, To: 1, EdgeID: 3, Latency: 2, SentTick: 7,
				PayloadType: "core.rumors", Payload: []byte(`{"x":1}`)},
			{Kind: 1, Seq: 6, From: 1, To: 2, EdgeID: 4, Latency: 1, SentTick: 7,
				PayloadType: "core.rumors", Payload: []byte(`{"x":2}`)},
			{Kind: 3, Seq: 7, From: 2, To: 0, EdgeID: 5, Latency: 3, SentTick: 8},
		}
		return enc.appendBatchFrame(nil, msgs, []uint64{2, 9})
	}
	f.Add(batchFrame())
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
		s := enc.appendFrame(nil, msg, nil)
		m2, m3 := *msg, *msg
		m2.Seq, m2.SentTick = 6, 8
		m3.Seq, m3.SentTick = 7, 8
		f.Add(enc.appendBatchFrame(s, []wireMessage{m2, m3}, []uint64{5}))
	}
	// Intern-table exhaustion: one stream defining maxInternedTypes+1 fresh
	// types; the decoder must reject the frame that would overflow the table.
	{
		var enc wireEnc
		var s []byte
		for i := 0; i <= maxInternedTypes; i++ {
			m := wireMessage{Kind: 1, Seq: uint64(i + 1),
				PayloadType: fmt.Sprintf("t%02d", i), Payload: []byte("0")}
			s = enc.appendFrame(s, &m, nil)
		}
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, stream []byte) {
		br := bufio.NewReader(bytes.NewReader(stream))
		var dec wireDec
		for {
			acks, msgs, batch, err := dec.readFrameMulti(br)
			if err != nil {
				// Rejection must be total: no partial results escape.
				if len(msgs) > 0 || acks != nil {
					t.Fatalf("error %v returned partial results (%d msgs, %d acks)", err, len(msgs), len(acks))
				}
				return
			}
			for i := 1; i < len(acks); i++ {
				if acks[i] < acks[i-1] {
					t.Fatalf("decoded ack batch not ascending: %v", acks)
				}
			}
			if len(dec.names) > maxInternedTypes {
				t.Fatalf("intern table grew to %d entries past the cap", len(dec.names))
			}
			if batch && len(msgs) == 0 {
				t.Fatal("decoder accepted an empty batch frame")
			}
			if len(msgs) == 0 && len(acks) == 0 {
				continue // empty frame: a legal no-op
			}

			// Anything the decoder accepts must survive a re-encode /
			// re-decode round trip on a fresh connection pair — single frames
			// through appendFrame, super-frames through appendBatchFrame. Copy
			// out of the decoder-owned buffers first — the next readFrameMulti
			// reuses them.
			ackCopy := append([]uint64(nil), acks...)
			msgCopy := make([]wireMessage, len(msgs))
			for i, m := range msgs {
				msgCopy[i] = m
				msgCopy[i].Payload = append([]byte(nil), m.Payload...)
			}
			var enc2 wireEnc
			var re []byte
			switch {
			case batch:
				re = enc2.appendBatchFrame(nil, msgCopy, ackCopy)
			case len(msgCopy) == 1:
				re = enc2.appendFrame(nil, &msgCopy[0], ackCopy)
			default:
				re = enc2.appendFrame(nil, nil, ackCopy)
			}
			var dec2 wireDec
			acks2, msgs2, batch2, err := dec2.readFrameMulti(bufio.NewReader(bytes.NewReader(re)))
			if err != nil {
				t.Fatalf("re-encode of accepted frame does not decode: %v", err)
			}
			if batch2 != batch || len(msgs2) != len(msgCopy) {
				t.Fatalf("re-encode changed shape: batch %v→%v, msgs %d→%d", batch, batch2, len(msgCopy), len(msgs2))
			}
			if len(acks2) != len(ackCopy) {
				t.Fatalf("re-encode changed ack batch: %v -> %v", ackCopy, acks2)
			}
			for i := range acks2 {
				if acks2[i] != ackCopy[i] {
					t.Fatalf("re-encode changed ack batch: %v -> %v", ackCopy, acks2)
				}
			}
			for i := range msgs2 {
				got, want := msgs2[i], msgCopy[i]
				if got.Kind != want.Kind || got.Seq != want.Seq || got.From != want.From ||
					got.To != want.To || got.EdgeID != want.EdgeID || got.Latency != want.Latency ||
					got.SentTick != want.SentTick || got.PayloadType != want.PayloadType ||
					!bytes.Equal(got.Payload, want.Payload) {
					t.Fatalf("re-encode round trip mutated sub-message %d:\n got %+v\nwant %+v", i, got, want)
				}
			}
		}
	})
}
