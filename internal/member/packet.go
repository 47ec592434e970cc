package member

import (
	"encoding/binary"
	"fmt"
)

// PacketKind distinguishes the five SWIM message shapes.
type PacketKind uint8

const (
	// PktPing probes a member directly (or on behalf of Origin when
	// relayed by a ping-req).
	PktPing PacketKind = iota + 1
	// PktAck answers a ping; Subject is the node whose liveness it proves.
	PktAck
	// PktPingReq asks a relay to probe Subject on behalf of Origin.
	PktPingReq
	// PktSync requests a full-table anti-entropy exchange (carries the
	// sender's table).
	PktSync
	// PktSyncAck answers a sync with the receiver's full table.
	PktSyncAck
)

// String returns the kind's lowercase name.
func (k PacketKind) String() string {
	switch k {
	case PktPing:
		return "ping"
	case PktAck:
		return "ack"
	case PktPingReq:
		return "ping-req"
	case PktSync:
		return "sync"
	case PktSyncAck:
		return "sync-ack"
	}
	return fmt.Sprintf("PacketKind(%d)", uint8(k))
}

// Packet is one membership message. From is the sending node; Origin is the
// node the eventual ack must reach (differs from From on relayed pings);
// Subject is the node the packet is about (the probe target, the node an
// ack vouches for). Updates is the piggybacked delta batch, bounded by the
// sender's Config.MaxPiggyback (full tables for sync kinds).
type Packet struct {
	Kind    PacketKind
	From    int
	Origin  int
	Subject int
	Seq     uint32
	Updates []Update
}

// Envelope pairs a packet with its destination.
type Envelope struct {
	To  int
	Pkt Packet
}

// SizeBytes implements the simulator's payload accounting: the encoded
// length, so live metrics charge membership traffic its real wire cost.
func (p Packet) SizeBytes() int { return len(p.AppendWire(nil)) }

// WireType names the packet encoding in the live transports' payload codec.
func (Packet) WireType() string { return "member.packet" }

// AppendWire appends the packet's wire form to dst: a kind byte, the
// header fields as uvarints, then the delta count and per-delta
// (node, state, incarnation) triples. The same varint vocabulary as the
// live binary wire format, so a packet costs a few bytes plus ~3 per delta.
func (p Packet) AppendWire(dst []byte) []byte {
	dst = append(dst, byte(p.Kind))
	dst = binary.AppendUvarint(dst, uint64(p.From))
	dst = binary.AppendUvarint(dst, uint64(p.Origin))
	dst = binary.AppendUvarint(dst, uint64(p.Subject))
	dst = binary.AppendUvarint(dst, uint64(p.Seq))
	dst = binary.AppendUvarint(dst, uint64(len(p.Updates)))
	for _, up := range p.Updates {
		dst = binary.AppendUvarint(dst, uint64(up.Node))
		dst = append(dst, byte(up.St))
		dst = binary.AppendUvarint(dst, uint64(up.Inc))
	}
	return dst
}

// maxPacketUpdates bounds the delta count a decoded packet may claim, so a
// corrupt or hostile length cannot trigger an oversized allocation.
const maxPacketUpdates = 1 << 16

// DecodePacket parses a packet from its wire form.
func DecodePacket(data []byte) (Packet, error) {
	bad := func(what string) (Packet, error) {
		return Packet{}, fmt.Errorf("member: malformed packet: %s", what)
	}
	if len(data) == 0 {
		return bad("empty")
	}
	p := Packet{Kind: PacketKind(data[0])}
	if p.Kind < PktPing || p.Kind > PktSyncAck {
		return bad(fmt.Sprintf("kind %d", data[0]))
	}
	off := 1
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	hdr := [4]*int{&p.From, &p.Origin, &p.Subject, nil}
	for i, dst := range hdr {
		v, ok := next()
		if !ok {
			return bad("header")
		}
		if i == 3 {
			p.Seq = uint32(v)
		} else {
			*dst = int(v)
		}
	}
	count, ok := next()
	if !ok || count > maxPacketUpdates {
		return bad("delta count")
	}
	if count > 0 {
		p.Updates = make([]Update, count)
		for i := range p.Updates {
			v, ok := next()
			if !ok || off >= len(data) {
				return bad("delta")
			}
			st := State(data[off])
			off++
			if st > Dead {
				return bad("delta state")
			}
			inc, ok2 := next()
			if !ok2 {
				return bad("delta incarnation")
			}
			p.Updates[i] = Update{Node: int(v), St: st, Inc: uint32(inc)}
		}
	}
	if off != len(data) {
		return bad("trailing bytes")
	}
	return p, nil
}
