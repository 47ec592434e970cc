package live

import (
	"fmt"
	"net"
	"os"

	"gossip/internal/graph"
)

// NewUnixTransport listens on a unix-domain stream socket at path and
// returns a transport hosting the given node IDs. The wire protocol is
// byte-identical to TCP — same codec, same FrameBatch super-frames, same
// cumulative acks and loss accounting — only the kernel path shrinks: no checksums,
// no Nagle/cork logic, no loopback queueing. Peers dial it either explicitly
// ("unix://PATH" in SetPeers) or automatically when their transport learns
// the path via SetPeerSockets. buffer is as for NewTCPTransport.
func NewUnixTransport(path string, local []graph.NodeID, buffer int) (*StreamTransport, error) {
	t := newStreamTransport(local, buffer)
	if err := t.ListenUnix(path); err != nil {
		return nil, err
	}
	return t, nil
}

// ListenUnix adds a unix-socket listener at path alongside the transport's
// existing listeners, so one daemon can serve remote peers over TCP and
// co-located peers over the socket at once. A stale socket file left by a
// dead process is removed and the bind retried; a path with a live listener
// (or a non-socket file) is an error. The socket file is unlinked when the
// transport closes.
func (t *StreamTransport) ListenUnix(path string) error {
	ln, err := listenUnixSocket(path)
	if err != nil {
		return err
	}
	if err := t.addListener(ln, true); err != nil {
		ln.Close()
		return err
	}
	return nil
}

// UnixAddr returns the socket path of the transport's first unix listener,
// or "" when it has none. This is the path to advertise to co-located peers
// via their SetPeerSockets.
func (t *StreamTransport) UnixAddr() string {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	for _, sl := range t.listeners {
		if ua, ok := sl.ln.Addr().(*net.UnixAddr); ok {
			return ua.Name
		}
	}
	return ""
}

// listenUnixSocket binds a stream listener at path, reclaiming the path from
// a dead process: the bind fails while the socket file exists, so on failure
// probe it with a dial — if nothing answers and it really is a socket,
// remove it and bind again. Anything else (a live listener, a regular file)
// stays untouched.
func listenUnixSocket(path string) (net.Listener, error) {
	ln, err := net.Listen("unix", path)
	if err == nil {
		return ln, nil
	}
	fi, serr := os.Stat(path)
	if serr != nil || fi.Mode()&os.ModeSocket == 0 {
		return nil, fmt.Errorf("live: listen unix %s: %w", path, err)
	}
	if c, derr := net.Dial("unix", path); derr == nil {
		c.Close()
		return nil, fmt.Errorf("live: listen unix %s: socket in use: %w", path, err)
	}
	if rerr := os.Remove(path); rerr != nil && !os.IsNotExist(rerr) {
		return nil, fmt.Errorf("live: listen unix %s: %w", path, rerr)
	}
	ln, err = net.Listen("unix", path)
	if err != nil {
		return nil, fmt.Errorf("live: listen unix %s: %w", path, err)
	}
	return ln, nil
}
