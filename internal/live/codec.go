package live

import (
	"fmt"
	"sync"

	"gossip/internal/sim"
)

// The payload codec of the stream transports. A payload that crosses a
// process boundary encodes itself (WirePayload): Send checks that it can,
// and the connection's writer appends its bytes straight into the frame
// body. The receiving side keeps a registry of wire type name → decoder,
// which protocol packages fill from init functions (see internal/core);
// a connection resolves a name once, when the peer defines it in the
// connection's intern table (wire.go), never per message. In-process
// transports bypass the codec entirely and pass payloads by reference.

// WirePayload is a payload the stream transports can carry between
// processes. WireType names its encoding, which the receiver must have
// registered with RegisterPayload; AppendWire appends the encoded bytes to
// dst. The writer encodes a payload after Send has returned, on its own
// goroutine, so a payload must be an immutable snapshot — as the in-process
// fabrics already require.
type WirePayload interface {
	WireType() string
	AppendWire(dst []byte) []byte
}

// PayloadDecoder rebuilds a payload from its wire bytes. The transport's
// read loop reuses its frame buffers between messages, so data is only valid
// for the duration of the call: a decoder must copy any bytes it keeps.
type PayloadDecoder func(data []byte) (sim.Payload, error)

var (
	codecMu  sync.Mutex
	decoders = map[string]PayloadDecoder{}
)

// RegisterPayload registers the decoder of a wire type name. Registration is
// typically done from init functions; registering the same name twice
// panics.
func RegisterPayload(name string, dec PayloadDecoder) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := decoders[name]; dup {
		panic(fmt.Sprintf("live: payload codec %q registered twice", name))
	}
	if len(decoders) >= maxInternedTypes {
		// Receivers cap their per-connection intern tables at
		// maxInternedTypes; registering more types than that would produce
		// frames every conforming receiver rejects.
		panic(fmt.Sprintf("live: payload codec %q exceeds the %d-type intern limit", name, maxInternedTypes))
	}
	decoders[name] = dec
}

// wireType is one entry of a connection's decoding intern table: a type name
// the peer defined and the decoder registered for it.
type wireType struct {
	name string
	dec  PayloadDecoder
}

// lookupType resolves a type name a peer defined. A name nobody registered
// gets a decoder that fails, so each of its payloads is one decode drop.
func lookupType(name string) *wireType {
	codecMu.Lock()
	dec, ok := decoders[name]
	codecMu.Unlock()
	if !ok {
		dec = func([]byte) (sim.Payload, error) {
			return nil, fmt.Errorf("live: unknown wire payload type %q", name)
		}
	}
	return &wireType{name: name, dec: dec}
}
