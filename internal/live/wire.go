package live

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// This file is the wire codec of the stream transport: a length-prefixed
// binary frame format, the only one the transport speaks.
//
// Frame layout (all integers varint-encoded unless noted):
//
//	frame   := header(1B) bodyLen(uvarint) body
//	header  := version nibble (0011) | flag nibble
//	flags   := 0x1 frame carries a data message
//	           0x2 frame carries a piggybacked ack
//	           0x4 frame is a FrameBatch super-frame (excludes 0x1)
//	body    := [ack] [data]                        // single-message frame
//	         | [ack] count(uvarint) data ...       // FrameBatch: count >= 1
//	ack     := decoded(uvarint)                    // cumulative, see below
//	data    := kind(1B) from(varint) to(varint) edge(varint) latency(varint)
//	           tickDelta(varint) delay(uvarint) ptype payload
//	ptype   := 0                                  // no payload type
//	         | 1 nameLen(uvarint) name            // define: appended to table
//	         | n>=2                               // reference to table[n-2]
//	payload := len(uvarint) bytes
//
// delay is the wait in µs the sender passed to Send, at most maxWireDelayUS;
// the receiver applies it.
// A first byte outside the version nibble (0x30..0x3F for v3) — a peer
// speaking anything else, v1 and v2 included — is a malformed frame. Signed
// fields use zigzag varints (binary.AppendVarint) so any int round-trips.
// Payload type names are interned per connection: the first frame carrying a
// type pays for the name, every later frame references it with one byte.
//
// The ack is one number per connection and direction: how many data
// sub-messages the frame's sender has decoded from this connection so far. A
// byte stream delivers in order, so an ack of k tells the peer its first k
// written sub-messages arrived. It rides the first frame a writer emits after
// the count changed, or an ack-only frame when no data is going that way.
//
// A FrameBatch super-frame (flag 0x4) carries N data sub-messages under one
// header: every sub-message uses the identical field encoding as a single
// data frame and the whole batch shares the connection's intern table and
// SentTick delta chain, so a run of near-consecutive messages costs a handful
// of bytes each. The transport's writer emits data only as FrameBatch frames
// (a batch of one is a batch); the decoder still accepts a single data frame
// (flag 0x1) from a peer, and the receiver treats it as a batch of one.
//
// SentTick is delta-encoded against per-connection running state (tickDelta
// is relative to the previous sub-message's tick, with two's-complement
// wraparound so every value round-trips): a connection's ticks are
// near-monotonic, so the field usually costs one byte instead of growing with
// the run length. Both codec halves carry connection state (this delta, the
// intern table), so a decoder must see a connection's frames in order from
// the start — exactly what a byte stream provides.

const (
	wireVersion     = 0x30 // version 3 in the high nibble
	wireVersionMask = 0xF0
	wireFlagData    = 0x01
	wireFlagAck     = 0x02
	wireFlagBatch   = 0x04

	// maxWireBody bounds one frame body so a corrupt length prefix cannot
	// trigger an arbitrarily large allocation.
	maxWireBody = 1 << 22

	// maxBatchMsgs bounds the sub-messages one FrameBatch super-frame
	// carries. The aggregating writer splits a larger drain into multiple
	// super-frames, so one frame stays well under maxWireBody even with
	// worst-case payloads.
	maxBatchMsgs = 1024

	// maxInternedTypes bounds the per-connection payload-type intern table:
	// a frame that would define a type past the cap is rejected as malformed,
	// so a misbehaving peer cannot grow decoder state without limit.
	// RegisterPayload refuses registrations past the same cap, so a
	// conforming encoder can never hit it.
	maxInternedTypes = 64

	// maxWireDelayUS bounds a sub-message's delay at one hour: a larger one
	// is malformed, so no forged delay reaches the receiver's arithmetic,
	// and Send refuses it, so a conforming sender never writes one.
	maxWireDelayUS = 3_600_000_000
)

var errMalformedFrame = fmt.Errorf("live: malformed binary frame")

// wireEnc is the encoder half of one connection: the payload-type intern
// table plus a reusable body scratch buffer. It is owned by the connection's
// writer goroutine and needs no locking.
type wireEnc struct {
	names    map[string]uint64
	scratch  []byte
	lastTick int64
}

// appendSub appends one data sub-message to body, advancing the connection's
// delta chains and intern table. Shared by single data frames and FrameBatch
// super-frames — both carry the identical field encoding.
func (e *wireEnc) appendSub(body []byte, w *wireMessage) []byte {
	body = append(body, w.Kind)
	body = binary.AppendVarint(body, int64(w.From))
	body = binary.AppendVarint(body, int64(w.To))
	body = binary.AppendVarint(body, int64(w.EdgeID))
	body = binary.AppendVarint(body, int64(w.Latency))
	body = binary.AppendVarint(body, int64(w.SentTick)-e.lastTick)
	e.lastTick = int64(w.SentTick)
	body = binary.AppendUvarint(body, w.DelayUS)
	switch {
	case w.PayloadType == "":
		body = binary.AppendUvarint(body, 0)
	default:
		id, known := e.names[w.PayloadType]
		if known {
			body = binary.AppendUvarint(body, id+2)
		} else {
			if e.names == nil {
				e.names = make(map[string]uint64)
			}
			e.names[w.PayloadType] = uint64(len(e.names))
			body = binary.AppendUvarint(body, 1)
			body = binary.AppendUvarint(body, uint64(len(w.PayloadType)))
			body = append(body, w.PayloadType...)
		}
	}
	body = binary.AppendUvarint(body, uint64(len(w.Payload)))
	return append(body, w.Payload...)
}

// appendFrame appends one encoded frame to dst: the data message (nil for an
// ack-only frame) plus the cumulative ack, when ack > 0.
func (e *wireEnc) appendFrame(dst []byte, w *wireMessage, ack uint64) []byte {
	body := e.scratch[:0]
	var flags byte
	if ack > 0 {
		flags |= wireFlagAck
		body = binary.AppendUvarint(body, ack)
	}
	if w != nil {
		flags |= wireFlagData
		body = e.appendSub(body, w)
	}
	e.scratch = body
	dst = append(dst, wireVersion|flags)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// appendBatchFrame appends one FrameBatch super-frame to dst: len(msgs) >= 1
// data sub-messages sharing this connection's intern table and delta chains
// under a single header, plus the cumulative ack in the batch header when
// ack > 0.
func (e *wireEnc) appendBatchFrame(dst []byte, msgs []wireMessage, ack uint64) []byte {
	body := e.scratch[:0]
	flags := byte(wireFlagBatch)
	if ack > 0 {
		flags |= wireFlagAck
		body = binary.AppendUvarint(body, ack)
	}
	body = binary.AppendUvarint(body, uint64(len(msgs)))
	for i := range msgs {
		body = e.appendSub(body, &msgs[i])
	}
	e.scratch = body
	dst = append(dst, wireVersion|flags)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// wireDec is the decoder half of one connection: the mirrored intern table
// plus reusable body and sub-message buffers. Owned by the connection's read
// loop.
type wireDec struct {
	names    []string
	body     []byte
	msgs     []wireMessage
	lastTick int64
}

// decodeSub decodes one data sub-message at off, filling *w and returning
// the new offset. w.Payload and w.PayloadType alias decoder-owned buffers.
func (d *wireDec) decodeSub(body []byte, off int, w *wireMessage) (int, error) {
	if off >= len(body) {
		return off, errMalformedFrame
	}
	*w = wireMessage{Kind: body[off]}
	off++
	ints := [4]*int{&w.From, &w.To, &w.EdgeID, &w.Latency}
	for _, p := range ints {
		v, o, err := varintAt(body, off)
		if err != nil {
			return off, err
		}
		*p, off = int(v), o
	}
	tickDelta, off, err := varintAt(body, off)
	if err != nil {
		return off, err
	}
	d.lastTick += tickDelta
	w.SentTick = int(d.lastTick)
	if w.DelayUS, off, err = uvarintAt(body, off); err != nil {
		return off, err
	}
	if w.DelayUS > maxWireDelayUS {
		return off, fmt.Errorf("%w: delay of %d µs exceeds limit", errMalformedFrame, w.DelayUS)
	}
	code, off, err := uvarintAt(body, off)
	if err != nil {
		return off, err
	}
	switch {
	case code == 0:
		// no payload type
	case code == 1:
		if len(d.names) >= maxInternedTypes {
			return off, fmt.Errorf("%w: payload type table full (%d entries)", errMalformedFrame, maxInternedTypes)
		}
		nameLen, o, err := uvarintAt(body, off)
		if err != nil {
			return off, err
		}
		off = o
		if nameLen > uint64(len(body)-off) {
			return off, errMalformedFrame
		}
		name := string(body[off : off+int(nameLen)])
		off += int(nameLen)
		d.names = append(d.names, name)
		w.PayloadType = name
	default:
		idx := code - 2
		if idx >= uint64(len(d.names)) {
			return off, fmt.Errorf("%w: payload type ref %d beyond table of %d", errMalformedFrame, idx, len(d.names))
		}
		w.PayloadType = d.names[idx]
	}
	payLen, off, err := uvarintAt(body, off)
	if err != nil {
		return off, err
	}
	if payLen > uint64(len(body)-off) {
		return off, errMalformedFrame
	}
	if payLen > 0 {
		w.Payload = body[off : off+int(payLen)]
		off += int(payLen)
	}
	return off, nil
}

// readFrameMulti reads one frame and decodes the cumulative ack it carries
// (0 without one) and every data message: zero (an ack-only frame), one (a
// single data frame), or N (a FrameBatch super-frame — batch reports which).
// The returned slice and every msg's Payload alias decoder-owned buffers
// that are reused by the next call, so all must be consumed before then. On
// error nothing is returned: a frame decodes whole or not at all.
func (d *wireDec) readFrameMulti(br *bufio.Reader) (ack uint64, msgs []wireMessage, batch bool, err error) {
	b0, err := br.ReadByte()
	if err != nil {
		return 0, nil, false, err
	}
	if b0&wireVersionMask != wireVersion {
		return 0, nil, false, fmt.Errorf("%w: unknown header 0x%02x", errMalformedFrame, b0)
	}
	flags := b0 &^ byte(wireVersionMask)
	if flags&wireFlagBatch != 0 && flags&wireFlagData != 0 {
		return 0, nil, false, fmt.Errorf("%w: batch and data flags together", errMalformedFrame)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, false, err
	}
	if n > maxWireBody {
		return 0, nil, false, fmt.Errorf("%w: body of %d bytes exceeds limit", errMalformedFrame, n)
	}
	if uint64(cap(d.body)) < n {
		d.body = make([]byte, n)
	}
	body := d.body[:n]
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, false, err
	}

	// The delta chain and the intern table advance as we decode; snapshot
	// them so a malformed tail can roll the connection state back to the
	// frame boundary (the caller tears the connection down on
	// errMalformedFrame, but the all-or-nothing contract keeps fuzzing
	// oracles honest).
	savedTick, savedNames := d.lastTick, len(d.names)
	defer func() {
		if err != nil {
			d.lastTick, d.names = savedTick, d.names[:savedNames]
		}
	}()

	off := 0
	if flags&wireFlagAck != 0 {
		a, o, err := uvarintAt(body, off)
		if err != nil {
			return 0, nil, false, err
		}
		ack, off = a, o
	}

	count := uint64(0)
	switch {
	case flags&wireFlagBatch != 0:
		c, o, err := uvarintAt(body, off)
		if err != nil {
			return 0, nil, false, err
		}
		off = o
		if c == 0 || c > uint64(len(body)) { // each sub-message costs >= 1 byte
			return 0, nil, false, fmt.Errorf("%w: batch of %d sub-messages in %d-byte body", errMalformedFrame, c, len(body))
		}
		count, batch = c, true
	case flags&wireFlagData != 0:
		count = 1
	default:
		if off != len(body) {
			return 0, nil, false, errMalformedFrame
		}
		return ack, nil, false, nil
	}

	d.msgs = d.msgs[:0]
	for i := uint64(0); i < count; i++ {
		var w wireMessage
		o, err := d.decodeSub(body, off, &w)
		if err != nil {
			return 0, nil, false, err
		}
		off = o
		d.msgs = append(d.msgs, w)
	}
	if off != len(body) {
		return 0, nil, false, errMalformedFrame
	}
	return ack, d.msgs, batch, nil
}

// uvarintAt decodes a uvarint at off, returning the value and the new offset.
func uvarintAt(b []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, off, errMalformedFrame
	}
	return v, off + n, nil
}

// varintAt decodes a zigzag varint at off.
func varintAt(b []byte, off int) (int64, int, error) {
	v, n := binary.Varint(b[off:])
	if n <= 0 {
		return 0, off, errMalformedFrame
	}
	return v, off + n, nil
}
