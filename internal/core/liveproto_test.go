package core

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
	"time"

	"gossip/internal/bitset"
	"gossip/internal/graph"
	"gossip/internal/live"
)

// TestDecodeBit pins the bit payload's one-byte encoding: '0' and '1'
// decode, anything else — the JSON bools included — is malformed.
func TestDecodeBit(t *testing.T) {
	for in, want := range map[string]bool{"0": false, "1": true} {
		p, err := decodeBit([]byte(in))
		if err != nil || p != (bitPayload{informed: want}) {
			t.Errorf("decodeBit(%q) = %v, %v; want %v", in, p, err, want)
		}
		if got := string(bitPayload{informed: want}.AppendWire(nil)); got != in {
			t.Errorf("bitPayload{%v} encodes as %q, want %q", want, got, in)
		}
	}
	for _, in := range []string{"true", "false", "", "2", "01", "1\n"} {
		if _, err := decodeBit([]byte(in)); err == nil {
			t.Errorf("decodeBit(%q) accepted", in)
		}
	}
}

// jsonRumors is the JSON form rumor sets had on the wire before the binary
// encoding, kept as the yardstick the binary one must never exceed.
func jsonRumors(s *bitset.Set) []byte {
	data, err := json.Marshal(struct {
		N   int   `json:"n"`
		Set []int `json:"s"`
	}{s.Cap(), s.Slice()})
	if err != nil {
		panic(err)
	}
	return data
}

// FuzzRumorsDecode feeds arbitrary bytes to the rumor payload decoder: it
// must never panic, and every set it accepts must re-encode to bytes that
// decode to the same set. For every input it also checks, on the set the
// bytes spell bit by bit, that the binary encoding is never longer than the
// JSON one.
func FuzzRumorsDecode(f *testing.F) {
	for _, s := range []*bitset.Set{
		bitset.New(0), bitset.New(1), bitset.NewWith(8, 0, 7),
		bitset.NewWith(300, 0, 1, 2, 127, 128, 299), bitset.NewWith(20000, 19999),
	} {
		f.Add(rumorPayload{set: s}.AppendWire(nil))
	}
	f.Add(binary.AppendUvarint(nil, math.MaxUint64))  // capacity -1, two's complement
	f.Add(binary.AppendUvarint(nil, 100000000000000)) // capacity past the bound
	f.Add([]byte{4, 5, 0, 0, 0, 0, 0})                // more members than capacity
	f.Add([]byte{4, 2, 1, 2})                         // second member past capacity
	f.Add([]byte{4, 1, 0, 0})                         // trailing byte
	f.Add([]byte{4, 2, 0x80})                         // truncated gap
	f.Add([]byte(`{"n":-1,"s":[]}`))                  // the retired JSON form

	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := decodeRumors(data); err == nil {
			set := p.(rumorPayload).set
			again, err := decodeRumors(rumorPayload{set: set}.AppendWire(nil))
			if err != nil {
				t.Fatalf("re-encoding of accepted %x does not decode: %v", data, err)
			}
			if got := again.(rumorPayload).set; !got.Equal(set) {
				t.Fatalf("round trip changed the set: %v -> %v", set, got)
			}
		}
		spelled := bitset.New(8 * len(data))
		for i := range spelled.Cap() {
			if data[i/8]&(1<<(i%8)) != 0 {
				spelled.Add(i)
			}
		}
		bin, js := (rumorPayload{set: spelled}).AppendWire(nil), jsonRumors(spelled)
		if len(bin) > len(js) {
			t.Fatalf("binary encoding of %v is %dB, JSON %dB", spelled, len(bin), len(js))
		}
	})
}

// forgedRumors claims the rumor payload's wire type and carries whatever
// bytes a hostile peer chose.
type forgedRumors []byte

func (forgedRumors) WireType() string               { return rumorPayload{}.WireType() }
func (p forgedRumors) AppendWire(dst []byte) []byte { return append(dst, p...) }

// TestRumorsForgedCapacityDropped sends rumor payloads with a forged capacity
// (-1 as a two's-complement uvarint, and 10^17) over a real connection: each
// is one counted decode drop at the receiver, not a panic, and the same
// connection goes on to deliver the well-formed payload sent behind them.
func TestRumorsForgedCapacityDropped(t *testing.T) {
	a, err := live.NewTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := live.NewTCPTransport("127.0.0.1:0", []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeers(map[graph.NodeID]string{1: b.Addr().String()})
	got := make(chan live.Message, 4)
	b.SetSink(func(m live.Message, _ time.Duration) bool { got <- m; return true })

	good := snapshotRumors(bitset.NewWith(40, 3, 17, 39))
	for _, p := range []any{
		forgedRumors(append(binary.AppendUvarint(nil, math.MaxUint64), 0)),
		forgedRumors(append(binary.AppendUvarint(nil, 1e17), 0)),
		good,
	} {
		if err := a.Send(live.Message{Kind: live.MsgRequest, From: 0, To: 1, Payload: p}, 0); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case m := <-got:
		if rp, ok := m.Payload.(rumorPayload); !ok || !rp.set.Equal(good.set) {
			t.Fatalf("delivered %+v, want the well-formed rumor set %v", m.Payload, good.set)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the well-formed payload behind the forged ones never arrived")
	}
	if n := b.Dropped(); n != 2 {
		t.Errorf("receiver counted %d drops, want the 2 forged payloads", n)
	}
	select {
	case m := <-got:
		t.Fatalf("unexpected delivery: %+v", m)
	case <-time.After(20 * time.Millisecond):
	}
}
