package live

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gossip/internal/sim"
)

// The wire codec registry maps protocol payload types to named byte
// encodings so the TCP transport can ship them between processes. Protocol
// packages register their payload types in an init function (see
// internal/core); in-process transports bypass the registry entirely and
// pass payloads by reference.

// PayloadEncoder tries to encode p; ok is false when p is not the
// registered type (the registry then tries the next encoder).
type PayloadEncoder func(p sim.Payload) (data []byte, ok bool)

// PayloadDecoder rebuilds a payload from its wire bytes. The transport's
// read loop reuses its frame buffers between messages, so data is only valid
// for the duration of the call: a decoder must copy any bytes it keeps.
type PayloadDecoder func(data []byte) (sim.Payload, error)

type wireCodec struct {
	name string
	enc  PayloadEncoder
}

// codecTable is an immutable registry snapshot. Encode/decode run on every
// message from every connection goroutine, so readers take no lock at all —
// just one atomic pointer load; registration (init-time, rare) publishes a
// fresh copy instead. A shared RWMutex here bounced its reader-count cache
// line between the send and receive cores and cost ~9% of local-fabric
// throughput.
type codecTable struct {
	encoders []wireCodec
	decoders map[string]PayloadDecoder
}

var (
	codecMu    sync.Mutex // serializes registration only
	codecState atomic.Pointer[codecTable]
)

func init() {
	codecState.Store(&codecTable{decoders: map[string]PayloadDecoder{}})
}

// RegisterPayload registers a payload type under a unique wire name.
// Registration is typically done from init functions; registering the same
// name twice panics.
func RegisterPayload(name string, enc PayloadEncoder, dec PayloadDecoder) {
	codecMu.Lock()
	defer codecMu.Unlock()
	old := codecState.Load()
	if _, dup := old.decoders[name]; dup {
		panic(fmt.Sprintf("live: payload codec %q registered twice", name))
	}
	if len(old.decoders) >= maxInternedTypes {
		// Receivers cap their per-connection intern tables at
		// maxInternedTypes; registering more types than that would produce
		// frames every conforming receiver rejects.
		panic(fmt.Sprintf("live: payload codec %q exceeds the %d-type intern limit", name, maxInternedTypes))
	}
	next := &codecTable{
		encoders: append(append([]wireCodec(nil), old.encoders...), wireCodec{name: name, enc: enc}),
		decoders: make(map[string]PayloadDecoder, len(old.decoders)+1),
	}
	for n, d := range old.decoders {
		next.decoders[n] = d
	}
	next.decoders[name] = dec
	codecState.Store(next)
}

// encodePayload finds the registered encoding of p. A nil payload encodes as
// the empty name.
func encodePayload(p sim.Payload) (name string, data []byte, err error) {
	if p == nil {
		return "", nil, nil
	}
	for _, c := range codecState.Load().encoders {
		if data, ok := c.enc(p); ok {
			return c.name, data, nil
		}
	}
	return "", nil, fmt.Errorf("live: no wire codec registered for payload type %T", p)
}

// DecodeBit parses the shared one-byte boolean payload encoding used by the
// hot single-bit protocol payloads: ASCII '0' / '1', nothing else.
func DecodeBit(data []byte) (bool, error) {
	if len(data) == 1 {
		switch data[0] {
		case '0':
			return false, nil
		case '1':
			return true, nil
		}
	}
	return false, fmt.Errorf("live: malformed bit payload %q", data)
}

// decodePayload rebuilds a payload from its wire form.
func decodePayload(name string, data []byte) (sim.Payload, error) {
	if name == "" {
		return nil, nil
	}
	dec, ok := codecState.Load().decoders[name]
	if !ok {
		return nil, fmt.Errorf("live: unknown wire payload type %q", name)
	}
	return dec(data)
}
