package live

import (
	"fmt"
	"net"

	"gossip/internal/graph"
)

// TCPTransport is the TCP-listening face of the generic stream core. The
// name survives from when TCP was the only fabric; every method — and the
// ability to dial unix:// peers — lives on StreamTransport, so the alias
// keeps the established API (and its tests) unchanged.
type TCPTransport = StreamTransport

// NewTCPTransport listens on listenAddr (e.g. "127.0.0.1:0") and returns a
// transport hosting the given node IDs. The transport accepts connections
// immediately; peers are added with SetPeers before the first Send.
func NewTCPTransport(listenAddr string, local []graph.NodeID) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", listenAddr, err)
	}
	t := newStreamTransport(local)
	if err := t.addListener(ln, false); err != nil {
		ln.Close()
		return nil, err
	}
	return t, nil
}

// NewTCPTransportFromListener is NewTCPTransport over an already-bound
// listener, for supervisors that reserve ports by binding and then hand the
// live socket to the daemon (gossipctl passes it as an inherited fd). Taking
// the listener instead of an address closes the reserve/rebind window in
// which another process could steal the port. The transport owns ln and
// closes it on Close.
func NewTCPTransportFromListener(ln net.Listener, local []graph.NodeID) (*TCPTransport, error) {
	t := newStreamTransport(local)
	if err := t.addListener(ln, false); err != nil {
		return nil, err
	}
	return t, nil
}
