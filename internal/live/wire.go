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
//	header  := version nibble (0100) | flag nibble
//	flags   := 0x2 frame carries a piggybacked ack
//	           0x4 frame carries data: a FrameBatch super-frame
//	body    := [ack] [count(uvarint) data ...]     // count >= 1 with 0x4
//	ack     := decoded(uvarint)                    // cumulative, see below
//	data    := kind(1B) from(varint) to(varint) edge(varint) latency(varint)
//	           tickDelta(varint) delay(uvarint) ptype payload
//	ptype   := 0                                  // no payload type
//	         | 1 nameLen(uvarint) name            // define: appended to table
//	         | n>=2                               // reference to table[n-2]
//	payload := len(uvarint) bytes                 // len is 0 after ptype 0
//
// Data travels only in FrameBatch super-frames (a batch of one is a batch);
// a frame without flag 0x4 is ack-only. Any other flag bit — 0x1, the single
// data frame of version 3, included — is a malformed frame, and so is a first
// byte outside the version nibble (0x40..0x4F for v4): a peer speaking
// anything else, v1 to v3 included.
//
// delay is the wait in µs the sender passed to Send, at most maxWireDelayUS;
// the receiver applies it. Signed fields use zigzag varints
// (binary.AppendVarint) so any int round-trips. Payload bytes are whatever
// the payload's AppendWire wrote (codec.go); the writer appends them straight
// into the frame body. Payload type names are interned per connection: the
// first frame carrying a type pays for the name, every later frame
// references it with one byte, and the receiver resolves the name to its
// decoder once, when it is defined.
//
// The ack is one number per connection and direction: how many data
// sub-messages the frame's sender has decoded from this connection so far. A
// byte stream delivers in order, so an ack of k tells the peer its first k
// written sub-messages arrived. It rides the first frame a writer emits after
// the count changed, or an ack-only frame when no data is going that way.
//
// The sub-messages of a super-frame share the connection's intern table and
// SentTick delta chain, so a run of near-consecutive messages costs a handful
// of bytes each. SentTick is delta-encoded against per-connection running
// state (tickDelta is relative to the previous sub-message's tick, with
// two's-complement wraparound so every value round-trips): a connection's
// ticks are near-monotonic, so the field usually costs one byte instead of
// growing with the run length. Both codec halves carry connection state (this
// delta, the intern table), so a decoder must see a connection's frames in
// order from the start — exactly what a byte stream provides.

const (
	wireVersion     = 0x40 // version 4 in the high nibble
	wireVersionMask = 0xF0
	wireFlagAck     = 0x02
	wireFlagBatch   = 0x04

	// maxWireBody bounds one frame body so a corrupt length prefix cannot
	// trigger an arbitrarily large allocation.
	maxWireBody = 1 << 22

	// maxBatchMsgs and maxBatchBytes bound one FrameBatch super-frame: the
	// encoder closes a batch at maxBatchMsgs sub-messages or once its body
	// reaches maxBatchBytes, so one frame stays well under maxWireBody
	// unless a single payload is itself that large.
	maxBatchMsgs  = 1024
	maxBatchBytes = 1 << 20

	// maxInternedTypes bounds the per-connection payload-type intern table:
	// a frame that would define a type past the cap is rejected as malformed,
	// so a misbehaving peer cannot grow decoder state without limit.
	// RegisterPayload refuses registrations past the same cap, so a sender
	// of registered types can never hit it.
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
// delta chain and intern table.
func (e *wireEnc) appendSub(body []byte, w *wireMessage) []byte {
	body = append(body, w.Kind)
	body = binary.AppendVarint(body, int64(w.From))
	body = binary.AppendVarint(body, int64(w.To))
	body = binary.AppendVarint(body, int64(w.EdgeID))
	body = binary.AppendVarint(body, int64(w.Latency))
	body = binary.AppendVarint(body, int64(w.SentTick)-e.lastTick)
	e.lastTick = int64(w.SentTick)
	body = binary.AppendUvarint(body, w.DelayUS)
	if w.Payload == nil {
		return append(body, 0, 0) // no type, empty payload
	}
	name := w.Payload.WireType()
	if id, known := e.names[name]; known {
		body = binary.AppendUvarint(body, id+2)
	} else {
		if e.names == nil {
			e.names = make(map[string]uint64)
		}
		e.names[name] = uint64(len(e.names))
		body = binary.AppendUvarint(body, 1)
		body = binary.AppendUvarint(body, uint64(len(name)))
		body = append(body, name...)
	}
	// The payload's length precedes its bytes but is known only once they
	// are appended: reserve the one byte that covers lengths under 128, and
	// shift the bytes up in the rare case the length needs more.
	at := len(body)
	body = w.Payload.AppendWire(append(body, 0))
	n := len(body) - at - 1
	if n < 0x80 {
		body[at] = byte(n)
		return body
	}
	var l [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(l[:], uint64(n))
	body = append(body, l[1:k]...)
	copy(body[at+k:], body[at+1:at+1+n])
	copy(body[at:], l[:k])
	return body
}

// appendBatchFrame appends one FrameBatch super-frame to dst: a prefix of
// msgs (len(msgs) >= 1) sharing this connection's intern table and delta
// chain under a single header, plus the cumulative ack when ack > 0. It
// returns the frame and how many messages it took, at least one, at most
// maxBatchMsgs, and no more once the body reached maxBatchBytes.
func (e *wireEnc) appendBatchFrame(dst []byte, msgs []wireMessage, ack uint64) ([]byte, int) {
	subs := e.scratch[:0]
	n := 0
	for n < len(msgs) && n < maxBatchMsgs && len(subs) < maxBatchBytes {
		subs = e.appendSub(subs, &msgs[n])
		n++
	}
	e.scratch = subs
	var hb [2 * binary.MaxVarintLen64]byte
	head := hb[:0]
	flags := byte(wireFlagBatch)
	if ack > 0 {
		flags |= wireFlagAck
		head = binary.AppendUvarint(head, ack)
	}
	head = binary.AppendUvarint(head, uint64(n))
	dst = append(dst, wireVersion|flags)
	dst = binary.AppendUvarint(dst, uint64(len(head)+len(subs)))
	dst = append(dst, head...)
	return append(dst, subs...), n
}

// appendAckFrame appends one ack-only frame carrying the cumulative ack.
func appendAckFrame(dst []byte, ack uint64) []byte {
	var ab [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(ab[:], ack)
	dst = append(dst, wireVersion|wireFlagAck, byte(k))
	return append(dst, ab[:k]...)
}

// wireDec is the decoder half of one connection: the mirrored intern table
// plus reusable body and sub-message buffers. Owned by the connection's read
// loop.
type wireDec struct {
	types    []*wireType
	body     []byte
	msgs     []wireMessage
	lastTick int64
}

// decodeSub decodes one data sub-message at off, filling *w and returning
// the new offset. w.data aliases the decoder-owned body buffer.
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
		if len(d.types) >= maxInternedTypes {
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
		w.typ = lookupType(string(body[off : off+int(nameLen)]))
		off += int(nameLen)
		d.types = append(d.types, w.typ)
	default:
		idx := code - 2
		if idx >= uint64(len(d.types)) {
			return off, fmt.Errorf("%w: payload type ref %d beyond table of %d", errMalformedFrame, idx, len(d.types))
		}
		w.typ = d.types[idx]
	}
	payLen, off, err := uvarintAt(body, off)
	if err != nil {
		return off, err
	}
	if payLen > uint64(len(body)-off) || (w.typ == nil && payLen > 0) {
		return off, errMalformedFrame
	}
	w.data = body[off : off+int(payLen)]
	return off + int(payLen), nil
}

// readFrameMulti reads one frame and decodes the cumulative ack it carries
// (0 without one) and its data messages: none for an ack-only frame, N for a
// FrameBatch super-frame. The returned slice and every message's data alias
// decoder-owned buffers that are reused by the next call, so all must be
// consumed before then. On error nothing is returned: a frame decodes whole
// or not at all.
func (d *wireDec) readFrameMulti(br *bufio.Reader) (ack uint64, msgs []wireMessage, err error) {
	b0, err := br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	if b0&wireVersionMask != wireVersion {
		return 0, nil, fmt.Errorf("%w: unknown header 0x%02x", errMalformedFrame, b0)
	}
	flags := b0 &^ byte(wireVersionMask)
	if flags&^(wireFlagAck|wireFlagBatch) != 0 {
		return 0, nil, fmt.Errorf("%w: unknown flags in header 0x%02x", errMalformedFrame, b0)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, err
	}
	if n > maxWireBody {
		return 0, nil, fmt.Errorf("%w: body of %d bytes exceeds limit", errMalformedFrame, n)
	}
	if uint64(cap(d.body)) < n {
		d.body = make([]byte, n)
	}
	body := d.body[:n]
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, err
	}

	// The delta chain and the intern table advance as we decode; snapshot
	// them so a malformed tail can roll the connection state back to the
	// frame boundary (the caller tears the connection down on
	// errMalformedFrame, but the all-or-nothing contract keeps fuzzing
	// oracles honest).
	savedTick, savedTypes := d.lastTick, len(d.types)
	defer func() {
		if err != nil {
			d.lastTick, d.types = savedTick, d.types[:savedTypes]
		}
	}()

	off := 0
	if flags&wireFlagAck != 0 {
		a, o, err := uvarintAt(body, off)
		if err != nil {
			return 0, nil, err
		}
		ack, off = a, o
	}
	if flags&wireFlagBatch == 0 {
		if off != len(body) {
			return 0, nil, errMalformedFrame
		}
		return ack, nil, nil
	}
	count, off, err := uvarintAt(body, off)
	if err != nil {
		return 0, nil, err
	}
	if count == 0 || count > uint64(len(body)) { // each sub-message costs >= 1 byte
		return 0, nil, fmt.Errorf("%w: batch of %d sub-messages in %d-byte body", errMalformedFrame, count, len(body))
	}
	d.msgs = d.msgs[:0]
	for i := uint64(0); i < count; i++ {
		var w wireMessage
		if off, err = d.decodeSub(body, off, &w); err != nil {
			return 0, nil, err
		}
		d.msgs = append(d.msgs, w)
	}
	if off != len(body) {
		return 0, nil, errMalformedFrame
	}
	return ack, d.msgs, nil
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
