package live

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

// wireMessage is one data message as the wire codec (wire.go) carries it.
// DelayUS is the delay Send was given, in whole microseconds: the receiver
// hands it to its sink, whose calendar applies it. Outbound, Payload is the
// sender's payload (nil for none), which encodes itself into the frame when
// the writer appends it (codec.go). Inbound, typ is the payload type's entry
// in the connection's intern table (nil for none) and data the encoded
// payload, aliasing the decoder's frame buffer.
type wireMessage struct {
	Kind     uint8
	From     int
	To       int
	EdgeID   int
	Latency  int
	SentTick int
	DelayUS  uint64
	Payload  WirePayload

	typ  *wireType
	data []byte
}

// StreamTransport is the transport-family-generic stream core: length-prefixed
// binary frames (wire.go) over any ordered byte stream. Two connection
// families (fabrics) plug in beneath it:
//
//   - TCP (NewTCPTransport): the cross-machine fabric.
//   - Unix domain sockets (NewUnixTransport, ListenUnix): co-located daemons
//     skip the TCP stack — no checksums, no Nagle/cork logic, no loopback
//     queueing. Dialed for every "unix://PATH" peer address.
//
// Both fabrics share the wire codec, the super-frame batching, the ack and
// loss accounting, and every counter below, so a mixed-fabric cluster is
// just a peers map with mixed address forms. Frames and bytes that traveled
// a unix socket are additionally counted in WireLocalFrames /
// WireLocalBytes, so harnesses can verify the fast path was actually taken.
//
// Each process hosts a subset of the graph's nodes behind one or more
// listeners; SetPeers maps every remote node to the listen address of the
// process hosting it. Messages between two locally hosted nodes
// short-circuit the socket and go straight to the sink. A message no sink
// takes, local or arrived, is counted as dropped; nothing holds it.
//
// A remote message has one lifecycle: Send queues it, its delay on the wire
// for the receiver's sink to apply, on the destination connection's writer
// queue; the writer takes the queue, encodes it, and writes it; once that
// write cycle's flush returns, the message is written and the sender keeps
// no copy. Every connection has a writer goroutine draining its queue
// through a buffered writer, so the many messages gossip generates in one
// tick coalesce into one syscall, and everything bound for the same
// destination daemon within one drain coalesces into FrameBatch super-frames
// (a batch of one is still a batch). The receiver decodes a super-frame once
// and scatters each sub-message straight to the owning shard's mailbox
// through the DeliverySink seam. SetFlushWindow adds an optional delay that
// widens the batches further.
//
// The byte stream is the only retransmitter. Each connection counts the
// messages written on it, and the peer returns one cumulative ack — how many
// it has decoded — piggybacked on its frames or in an ack-only frame. A
// stream delivers in order, so written − acked is exactly the set a broken
// connection may have lost: it counts as dropped, and so does Close's. The
// write cycle that failed, and everything still queued, re-queue toward a
// fresh connection, whose writer redials at once, so a cycle that partly got
// out may arrive twice. Receivers deliver every copy they decode, as the
// in-process transport does: a repeated message, re-queued or injected, is
// the handlers' to absorb, and every handler merges by union.
//
// Outbound connections are created on first use and pooled per destination
// address; each one's writer dials (with retries, so a cluster's processes
// may start in any order) before it writes, and frames sent meanwhile wait
// in its queue, so Send never blocks on the network. A read loop waits only
// on its socket and on the receiving shard's drain, so a receiver that falls
// behind stops reading and TCP's window holds the sender's writer, whose
// growing queue then holds the sender's initiation (see congested).
//
// Routing is dense: the hosted set is a slice by NodeID, and the route table
// maps each remote NodeID to its address's route (down flag and pooled
// connection). Send resolves a message's route with two bounds-checked loads
// and one atomic load, checks the route's down flag, and takes no lock.
// SetPeers publishes a new table copy-on-write, so each call costs O(n) in
// the nodes routed; call it before the first Send.
type StreamTransport struct {
	hosted []bool // by NodeID; read-only after construction (see Hosts)

	// listeners are the transport's accept sockets (TCP, unix — a
	// daemon typically has one TCP listener plus an optional unix socket).
	// Guarded by connMu; the first listener's address is Addr().
	listeners []streamListener

	sink atomic.Pointer[DeliverySink]

	// Atomic because connection goroutines read it while the owner may
	// still be configuring (an eager peer can dial in before SetFlushWindow).
	flushWindow atomic.Int64 // time.Duration

	// routes is the immutable route table the send path reads; peerMu
	// serializes the calls of its one writer, SetPeers.
	peerMu sync.Mutex
	routes atomic.Pointer[routeTable]

	// conns holds every connection, outbound and accepted, from creation
	// until its loss count is settled, for Close and Drain to sweep. The
	// routing pool lives on the routes (route.out).
	connMu sync.Mutex
	conns  map[*connState]struct{}

	dialTimeout time.Duration // how long a writer retries dialing an unreachable peer

	// congestedN counts the connections whose writer queue outgrew one
	// super-frame since their writer last took it (see congested).
	congestedN atomic.Int32

	bytesOut      atomic.Int64 // frame bytes written to sockets
	flushes       atomic.Int64 // socket write batches (syscalls; see countingWriter)
	framesOut     atomic.Int64 // physical frames written (a super-frame counts once)
	msgsOut       atomic.Int64 // logical data messages those frames carried
	localBytes    atomic.Int64 // subset of bytesOut that traveled a local fabric
	localFrames   atomic.Int64 // subset of framesOut that traveled a local fabric
	dropsGiveUp   atomic.Int64 // behind a dial that gave up, or refused by two dead connections
	dropsBroken   atomic.Int64 // written and unacked when their connection broke
	dropsClosed   atomic.Int64 // unacked or unwritten at Close, or abandoned by a drain
	dropsDecode   atomic.Int64 // undecodable wire payloads or corrupt frames
	dropsMisroute atomic.Int64 // not hosted here, forged, or no runtime attached to take it
	dropsDown     atomic.Int64 // refused: every node at the address believed dead

	draining  atomic.Bool // Drain started: no new sends, dials, or redial bursts
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

var _ Transport = (*StreamTransport)(nil)
var _ SinkTransport = (*StreamTransport)(nil)
var _ FaultReporter = (*StreamTransport)(nil)
var _ Drainer = (*StreamTransport)(nil)
var _ PeerStatusSink = (*StreamTransport)(nil)
var _ congestion = (*StreamTransport)(nil)

// streamListener is one accept socket plus its fabric locality: connections
// accepted from a unix listener count toward the WireLocal* ledger.
type streamListener struct {
	ln    net.Listener
	local bool
}

// newStreamTransport builds the stream core with no listeners attached; the
// family constructors (NewTCPTransport, NewUnixTransport) attach theirs with
// addListener before the transport is handed out.
func newStreamTransport(local []graph.NodeID) *StreamTransport {
	n := 0
	for _, u := range local {
		n = max(n, u+1)
	}
	t := &StreamTransport{
		hosted:      make([]bool, n),
		conns:       make(map[*connState]struct{}),
		dialTimeout: 10 * time.Second, // generous, so a cluster's processes may start in any order
		closed:      make(chan struct{}),
	}
	for _, u := range local {
		if u >= 0 {
			t.hosted[u] = true
		}
	}
	t.routes.Store(&routeTable{byAddr: map[string]*route{}})
	return t
}

// addListener attaches one accept socket to the transport and starts its
// accept loop. Returns ErrTransportClosed after Close (the caller still owns
// ln then and must close it).
func (t *StreamTransport) addListener(ln net.Listener, local bool) error {
	sl := streamListener{ln: ln, local: local}
	t.connMu.Lock()
	if t.isClosed() {
		t.connMu.Unlock()
		return ErrTransportClosed
	}
	t.listeners = append(t.listeners, sl)
	t.wg.Add(1)
	t.connMu.Unlock()
	go t.acceptLoop(sl)
	return nil
}

// Addr returns the transport's primary bound listen address (the first
// listener attached — the TCP address for NewTCPTransport, the socket path
// for NewUnixTransport).
func (t *StreamTransport) Addr() net.Addr {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	return t.listeners[0].ln.Addr()
}

// route is one peer address's sending state, shared by every node hosted
// there: whether membership believes the address dead, and its pooled
// outbound connection. A route lives as long as the transport; later route
// tables reuse it, so an extension keeps the connection and the verdicts.
type route struct {
	addr string
	// out is the pooled connection, nil until the first send and after a
	// break, so the next send redials. conn sets it under connMu; evict
	// clears it by compare-and-swap, so it never clears a successor.
	out atomic.Pointer[connState]
	// nodes counts the nodes the current table routes here.
	nodes atomic.Int32
	// down makes Send refuse the address. The unit that fails is the
	// process, not the node, so down is set only while every node routed
	// here is in dead, the nodes membership declared dead. mu guards dead
	// and every change to nodes or down.
	down atomic.Bool
	mu   sync.Mutex
	dead map[graph.NodeID]struct{}
}

// settleLocked recomputes down from nodes and dead; r.mu must be held.
func (r *route) settleLocked() {
	n := int(r.nodes.Load())
	r.down.Store(n > 0 && len(r.dead) >= n)
}

// routeTable is one immutable snapshot of the routing state. Writers build
// a new table and publish it; nothing in a published table changes.
type routeTable struct {
	byNode []*route          // by NodeID; nil where no address is known
	byAddr map[string]*route // one route per address; read by SetPeers only
}

// lookup returns u's route, nil for a node with no address. The unsigned
// compare makes a negative ID a miss like one past the end.
func (tab *routeTable) lookup(u graph.NodeID) *route {
	if uint(u) < uint(len(tab.byNode)) {
		return tab.byNode[u]
	}
	return nil
}

// SetPeers installs (or extends) the node→address map used to route remote
// sends. Locally hosted nodes need no entry, and a negative ID names no node
// and is skipped. Addresses select the fabric by form: "unix://PATH" dials
// a unix socket, anything else ("host:port") dials TCP.
//
// The route table is copy-on-write: each call copies it, O(n) in the nodes
// routed, and nodes at an address already known join its route, pooled
// connection and verdicts included. Call it before the first Send; a later
// call is safe, and the sends racing it use the old table or the new one.
func (t *StreamTransport) SetPeers(addrs map[graph.NodeID]string) {
	t.peerMu.Lock()
	defer t.peerMu.Unlock()
	old := t.routes.Load()
	n := len(old.byNode)
	for u := range addrs {
		n = max(n, u+1)
	}
	next := &routeTable{byNode: make([]*route, n), byAddr: maps.Clone(old.byAddr)}
	copy(next.byNode, old.byNode)
	for u, a := range addrs {
		if u < 0 {
			continue
		}
		r := next.byAddr[a]
		if r == nil {
			r = &route{addr: a}
			next.byAddr[a] = r
		}
		if prev := next.byNode[u]; prev != r {
			if prev != nil {
				prev.mu.Lock()
				delete(prev.dead, u) // a moved node no longer counts here
				prev.nodes.Add(-1)
				prev.settleLocked()
				prev.mu.Unlock()
			}
			r.mu.Lock()
			r.nodes.Add(1) // a node joining a down address is not yet dead
			r.settleLocked()
			r.mu.Unlock()
			next.byNode[u] = r
		}
	}
	t.routes.Store(next)
}

// unixScheme is the peer-address prefix that selects the unix fabric. Any
// other address dials TCP.
const unixScheme = "unix://"

// unixSockBuf sizes each unix connection's kernel buffers. The distro
// default (~208 KiB) was tuned for remote links, not for a firehose between
// co-located daemons: a full super-frame burst fills it, the writer blocks,
// batches shrink, and the socket loses to loopback TCP. Wide buffers keep
// the aggregation pipeline full.
const unixSockBuf = 4 << 20

// tuneUnixConn widens a freshly established unix connection's kernel
// buffers. Best effort: a kernel that clamps the size just caps the win.
func tuneUnixConn(c net.Conn) net.Conn {
	if uc, ok := c.(*net.UnixConn); ok {
		uc.SetReadBuffer(unixSockBuf)
		uc.SetWriteBuffer(unixSockBuf)
	}
	return c
}

// dialPeer opens one stream to addr, choosing the connection family from the
// address: "unix://PATH" dials the socket, anything else dials TCP. The
// returned flag reports whether the stream is a unix socket, which routes its
// traffic into the WireLocal* counters.
func dialPeer(addr string) (net.Conn, bool, error) {
	if path, ok := strings.CutPrefix(addr, unixScheme); ok {
		c, err := net.DialTimeout("unix", path, 2*time.Second)
		if err != nil {
			return nil, true, err
		}
		return tuneUnixConn(c), true, nil
	}
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	return c, false, err
}

// SetFlushWindow makes every connection's writer wait this long after the
// first queued frame before flushing, widening write batches at the cost of
// up to that much added delivery latency (0, the default, flushes as soon as
// the queue drains — pure coalescing with no added latency). Call before the
// first Send.
func (t *StreamTransport) SetFlushWindow(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.flushWindow.Store(int64(d))
}

// Overload returns the transport's overload ledger, which always reads zero:
// no queue sheds (see congested).
func (t *StreamTransport) Overload() OverloadCounts { return OverloadCounts{} }

// congested reports whether some connection's writer queue has grown past
// one full super-frame (chunkFrames) since its writer last took it: the
// writer is stuck behind a full socket or a dial. The runtime then holds
// initiation until it clears (see shard.tick); responses and membership
// frames still queue, so Send never blocks and no frame is shed.
func (t *StreamTransport) congested() bool { return t.congestedN.Load() > 0 }

// PeerDown implements PeerStatusSink: the membership layer declared node u
// dead. Once every node routed to u's address is believed dead, sends there
// are refused, membership packets excepted (see Send), until a PeerUp.
// Every local observer forwards the same verdict, so a repeat counts u once.
// A connection still dialing the address gives up at its next failed
// attempt, its queue a counted loss (see dial); what an established
// connection has queued or written is left to it: written and acked, or
// counted lost if it breaks.
func (t *StreamTransport) PeerDown(u graph.NodeID) {
	r := t.routes.Load().lookup(u)
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.dead == nil {
		r.dead = make(map[graph.NodeID]struct{})
	}
	r.dead[u] = struct{}{}
	r.settleLocked()
	r.mu.Unlock()
}

// PeerUp implements PeerStatusSink: node u refuted its suspicion or
// rejoined, so its address takes sends again at once.
func (t *StreamTransport) PeerUp(u graph.NodeID) {
	r := t.routes.Load().lookup(u)
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.dead, u)
	r.settleLocked()
	r.mu.Unlock()
}

// Dropped returns the number of messages lost for any terminal reason since
// the transport started: messages behind a dial that gave up, written and
// unacked when their connection broke or at Close, unwritten at Close,
// undecodable payloads, misroutes, and sends refused toward a dead address.
// A message whose ack a break destroyed counts even though it may have
// arrived, so after a break delivered + Dropped() may exceed the sends;
// without one it is exact.
func (t *StreamTransport) Dropped() int64 {
	return t.dropsGiveUp.Load() + t.dropsBroken.Load() + t.dropsClosed.Load() +
		t.dropsDecode.Load() + t.dropsMisroute.Load() + t.dropsDown.Load()
}

// WireBytesOut returns the total frame bytes this transport wrote to its
// sockets (data frames and acks). Benchmarks divide it by the
// message count to report bytes per delivered message.
func (t *StreamTransport) WireBytesOut() int64 { return t.bytesOut.Load() }

// WireFlushes returns the number of socket write batches (one syscall each):
// every end-of-drain flush of a connection's buffered writer, plus the
// internal spills a batch larger than the write buffer forces. The count is
// consistent across flush windows — the 0-window pure-coalescing path and a
// widened window are measured identically — so WireFramesOut/WireFlushes is
// an honest frames-per-syscall factor either way.
func (t *StreamTransport) WireFlushes() int64 { return t.flushes.Load() }

// WireFramesOut returns the physical frames written (a FrameBatch
// super-frame counts once).
func (t *StreamTransport) WireFramesOut() int64 { return t.framesOut.Load() }

// WireMsgsOut returns the logical data messages carried by the frames
// written: WireMsgsOut/WireFramesOut is the realized aggregation factor, and
// WireFramesOut/WireFlushes the realized write coalescing.
func (t *StreamTransport) WireMsgsOut() int64 { return t.msgsOut.Load() }

// WireLocalFrames returns the subset of WireFramesOut that traveled a local
// fabric — a unix socket — instead of TCP. A cluster harness expecting the
// zero-TCP fast path between co-located daemons asserts this is positive on
// every daemon.
func (t *StreamTransport) WireLocalFrames() int64 { return t.localFrames.Load() }

// WireLocalBytes returns the subset of WireBytesOut written to local fabrics.
func (t *StreamTransport) WireLocalBytes() int64 { return t.localBytes.Load() }

// Faults implements FaultReporter with the transport's real-network ledger.
func (t *StreamTransport) Faults() FaultReport {
	return FaultReport{FaultCounts: FaultCounts{TransportDrops: t.Dropped()}}
}

// Send implements Transport. A local destination goes to the sink (a send
// it does not take is a misroute drop); a remote one is checked at once (a
// payload that is not a WirePayload, or a delay past maxWireDelayUS, is an
// error here) and queued with its delay in whole µs, rounded up, for the
// writer to encode. A send toward an address membership declared dead (see
// PeerDown) is refused: a terminal, counted loss, like an injected drop.
// Membership packets still go: the detector neither probes nor syncs with a
// member it holds dead, so what it sends there answers a packet it received,
// and a reply carries the Dead record a recovered peer must refute to be
// re-admitted. Send never waits for a dial.
func (t *StreamTransport) Send(msg Message, delay time.Duration) error {
	if t.stopping() {
		return ErrTransportClosed
	}
	if t.Hosts(msg.To) {
		if s := t.sink.Load(); s == nil || !(*s)(msg, delay) {
			t.dropsMisroute.Add(1) // no runtime took it; nothing holds it
		}
		return nil
	}
	r := t.routes.Load().lookup(msg.To)
	if r == nil {
		return fmt.Errorf("live: no peer address for node %d", msg.To)
	}
	if delay > maxWireDelayUS*time.Microsecond {
		return fmt.Errorf("live: delay %v exceeds the wire limit", delay)
	}
	wp, ok := msg.Payload.(WirePayload)
	if !ok && msg.Payload != nil {
		return fmt.Errorf("live: payload type %T does not encode itself for the wire", msg.Payload)
	}
	if r.down.Load() && msg.Kind != MsgMember {
		t.dropsDown.Add(1)
		return nil
	}
	w := wireMessage{
		Kind:     uint8(msg.Kind),
		From:     int(msg.From),
		To:       int(msg.To),
		EdgeID:   msg.EdgeID,
		Latency:  msg.Latency,
		SentTick: msg.SentTick,
		DelayUS:  uint64((max(delay, 0) + time.Microsecond - 1) / time.Microsecond),
		Payload:  wp,
	}
	t.enqueue(r, &w)
	return nil
}

// isClosed reports whether Close has begun.
func (t *StreamTransport) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// stopping reports whether the transport is closed or draining: it admits
// no sends and opens no connections.
func (t *StreamTransport) stopping() bool { return t.isClosed() || t.draining.Load() }

// enqueue queues w on r's connection, creating it if needed. Missing every
// queue — the transport is stopping, or the connection died twice in a row —
// is a terminal, counted loss.
func (t *StreamTransport) enqueue(r *route, w *wireMessage) {
	for attempt := 0; attempt < 2; attempt++ {
		cs, err := t.conn(r)
		if err != nil {
			t.dropsClosed.Add(1)
			return
		}
		if cs.enqueue(w) {
			return
		}
	}
	t.dropsGiveUp.Add(1)
}

// Recv implements Transport's stub (see Transport): always nil.
func (t *StreamTransport) Recv(graph.NodeID) <-chan Message { return nil }

// Hosts implements SinkTransport. The unsigned compare makes a negative or
// out-of-range ID, one forged on the wire included, a miss.
func (t *StreamTransport) Hosts(u graph.NodeID) bool {
	return uint(u) < uint(len(t.hosted)) && t.hosted[u]
}

// SetSink implements SinkTransport: locally destined sends and wire arrivals
// for hosted nodes are handed to sink.
func (t *StreamTransport) SetSink(sink DeliverySink) bool {
	if sink == nil {
		t.sink.Store(nil)
	} else {
		t.sink.Store(&sink)
	}
	return true
}

// Close implements Transport: it stops the listeners and every connection
// (dialing ones too; each writer first pays the ack it owes), and counts
// every message still queued, or written and unacked, as dropped — the
// unacked when each connection's read loop settles it, before Close
// returns.
func (t *StreamTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.connMu.Lock()
		lns := append([]streamListener(nil), t.listeners...)
		t.connMu.Unlock()
		for _, sl := range lns {
			sl.ln.Close()
		}
		t.connMu.Lock()
		for cs := range t.conns {
			data := cs.markDead()
			t.dropsClosed.Add(int64(len(data)))
			if cs.c != nil { // nil while its writer is still dialing
				cs.c.SetWriteDeadline(time.Now().Add(closeAckWait))
			}
		}
		t.connMu.Unlock()
	})
	t.wg.Wait()
	return nil
}

// closeAckWait bounds a closing connection's last ack flush and how long
// its read loop then waits for the peer's last acks (see finish).
const closeAckWait = 100 * time.Millisecond

// stages returns, over every connection not yet settled, the messages not
// yet written — in a writer queue (a dialing connection's included) or held
// by a writer whose cycle has not flushed — and those written but not yet
// acked.
func (t *StreamTransport) stages() (queued, unacked int) {
	t.connMu.Lock()
	conns := make([]*connState, 0, len(t.conns))
	for cs := range t.conns {
		conns = append(conns, cs)
	}
	t.connMu.Unlock()
	for _, cs := range conns {
		cs.qmu.Lock()
		queued += cs.qLen + cs.held
		unacked += int(cs.unackedLocked())
		cs.qmu.Unlock()
	}
	return queued, unacked
}

// queueDepth returns the messages queued or held on live connections.
func (t *StreamTransport) queueDepth() int {
	q, _ := t.stages()
	return q
}

// unackedCount returns the messages written on live connections and not yet
// acked.
func (t *StreamTransport) unackedCount() int {
	_, u := t.stages()
	return u
}

// Drain implements Drainer: stop admitting sends, then wait for every sent
// message to resolve before closing. A message moves forward through one
// stage at a time — writer queue (a dialing connection's too), writer-held,
// written and unacked — and each connection reports its three under one
// lock until its loss count is settled, so the drain is clean once all are
// empty. A leaving process waits out no dial and redials nothing: a dialing
// connection gives up at its next failure, its queue a counted loss in
// QueuedAtClose, and a connection that breaks loses its unacked messages to
// PendingAtClose. On deadline expiry
// the transport closes anyway and reports what was left.
func (t *StreamTransport) Drain(ctx context.Context) (DrainReport, error) {
	start := time.Now()
	if t.isClosed() {
		return DrainReport{}, ErrTransportClosed
	}
	t.draining.Store(true)
	closedBefore, brokenBefore := t.dropsClosed.Load(), t.dropsBroken.Load()
	abandoned := func() int { return int(t.dropsClosed.Load() - closedBefore) }
	broken := func() int { return int(t.dropsBroken.Load() - brokenBefore) }
	var rep DrainReport
	poll := time.NewTimer(2 * time.Millisecond)
	defer poll.Stop()
	for {
		if queued, unacked := t.stages(); queued == 0 && unacked == 0 {
			rep.Clean = true
			rep.QueuedAtClose, rep.PendingAtClose = abandoned(), broken()
			err := t.Close()
			rep.Wall = time.Since(start)
			return rep, err
		}
		select {
		case <-ctx.Done():
			queued, unacked := t.stages()
			rep.QueuedAtClose = abandoned() + queued
			rep.PendingAtClose = broken() + unacked
			t.Close()
			rep.Wall = time.Since(start)
			return rep, ctx.Err()
		case <-t.closed:
			rep.Wall = time.Since(start)
			return rep, ErrTransportClosed
		case <-poll.C:
			poll.Reset(2 * time.Millisecond)
		}
	}
}

func (t *StreamTransport) acceptLoop(sl streamListener) {
	defer t.wg.Done()
	for {
		c, err := sl.ln.Accept()
		if err != nil {
			return // listener closed
		}
		tuneUnixConn(c)
		cs := t.newConnState(nil)
		cs.attach(c, sl.local)
		t.connMu.Lock()
		if t.isClosed() {
			// Accepted in the middle of Close after it swept the conn
			// lists; drop the connection instead of leaking it.
			t.connMu.Unlock()
			c.Close()
			continue
		}
		t.conns[cs] = struct{}{}
		t.wg.Add(2)
		t.connMu.Unlock()
		go t.readLoop(cs)
		go t.writeLoop(cs)
	}
}

// connState is one connection (pooled outbound or accepted inbound). Frames
// are not written by senders directly: they are queued under qmu and drained
// by the connection's writer goroutine (writeLoop), which batches everything
// available — data frames and the ack it owes — through one buffered writer,
// so a burst of same-tick messages costs one syscall instead of one each.
type connState struct {
	t *StreamTransport
	r *route // the peer address's route for outbound conns; nil for accepted

	// Set by attach: before the read and write loops start on an accepted
	// connection, by the writer's dial (under connMu) on an outbound one.
	c     net.Conn
	local bool // connection rides a local fabric (unix socket)

	qmu   sync.Mutex
	qHead *msgChunk // chunked data-frame queue; see msgChunk
	qTail *msgChunk
	qLen  int
	held  int // data frames the writer took and has not yet written
	dead  bool
	// congested is set once qLen passes chunkFrames and cleared when the
	// writer takes the queue or the connection dies; each set counts once
	// in the transport's congestedN.
	congested bool

	// The delivery ledger of what this side sent, under qmu. written counts
	// data messages whose write cycle flushed; acked is the peer's
	// cumulative count of them. settle counts written − acked into lostTo
	// once the read loop has taken every ack the peer sent; lost is that
	// count, topped up by a cycle that flushes afterwards.
	written, acked, lost int64
	lostTo               *atomic.Int64 // non-nil once settled

	// recvd counts the data sub-messages the read loop decoded — the ack
	// this side owes; ackSent is the last count the writer put on the wire.
	recvd   atomic.Int64
	ackSent int64

	notify chan struct{} // wake the writer (capacity 1)
	deadCh chan struct{} // closed by markDead

	// Writer-goroutine-owned state: the buffered writer, the encoder's
	// intern table and scratch, and the frame build buffer.
	bw  *bufio.Writer
	enc wireEnc
	buf []byte
}

// chunkFrames is the per-chunk capacity of the writer queue, deliberately
// equal to maxBatchMsgs so one full chunk encodes as exactly one full-size
// super-frame and the framing an unthrottled sender produces is byte-for-byte
// what a contiguous queue produced. It is also the depth past which a queue
// marks its transport congested.
const chunkFrames = maxBatchMsgs

// msgChunk is one fixed-size segment of a connection's writer queue. A
// contiguous []wireMessage queue doubles in place as a backlog builds, and
// against an unthrottled sender that means repeatedly allocating, zeroing and
// copying a multi-megabyte array while the GC rescans all of it — the
// dominant cost on the local-fabric hot path. Chunks never move once linked:
// enqueue fills the tail at n, and the writer consumes whole chunks
// head-first; retired chunks recycle through chunkPool. Entries are not cleared on recycle; the
// next fill overwrites them, and anything stale past n is at worst a
// short-lived payload reference.
type msgChunk struct {
	next *msgChunk
	n    int // queued entries are msgs[:n]
	msgs [chunkFrames]wireMessage
}

var chunkPool = sync.Pool{New: func() any { return new(msgChunk) }}

func getChunk() *msgChunk {
	c := chunkPool.Get().(*msgChunk)
	c.next, c.n = nil, 0
	return c
}

// flattenChunks copies a chunk chain into one slice (cold path: connection
// teardown), recycling the chunks.
func flattenChunks(head *msgChunk) []wireMessage {
	n := 0
	for c := head; c != nil; c = c.next {
		n += c.n
	}
	if n == 0 {
		return nil
	}
	out := make([]wireMessage, 0, n)
	for c := head; c != nil; {
		out = append(out, c.msgs[:c.n]...)
		next := c.next
		chunkPool.Put(c)
		c = next
	}
	return out
}

// countingWriter counts bytes and socket write batches for WireBytesOut and
// WireFlushes. Every Write here is one syscall batch: the end-of-drain
// flushes and the internal spills an oversized batch forces both land on
// this seam, so the flush count stays consistent between the 0-window
// coalescing path and widened flush windows. The ledger is credited before
// the bytes reach the socket and debited for whatever a short or failed write
// left unwritten, so a receiver can never observe a delivery the sender's
// counters do not yet show.
type countingWriter struct {
	c       net.Conn
	n       *atomic.Int64
	flushes *atomic.Int64
	localN  *atomic.Int64 // non-nil on local-fabric connections
}

func (w countingWriter) Write(p []byte) (int, error) {
	w.count(int64(len(p)), 1)
	n, err := w.c.Write(p)
	if n < len(p) {
		flushes := int64(0)
		if n == 0 {
			flushes = -1
		}
		w.count(int64(n-len(p)), flushes)
	}
	return n, err
}

func (w countingWriter) count(bytes, flushes int64) {
	w.n.Add(bytes)
	if w.localN != nil {
		w.localN.Add(bytes)
	}
	w.flushes.Add(flushes)
}

func (t *StreamTransport) newConnState(r *route) *connState {
	return &connState{
		t:      t,
		r:      r,
		notify: make(chan struct{}, 1),
		deadCh: make(chan struct{}),
	}
}

// attach binds the connection to its established stream.
func (cs *connState) attach(c net.Conn, local bool) {
	cw := countingWriter{c: c, n: &cs.t.bytesOut, flushes: &cs.t.flushes}
	if local {
		cw.localN = &cs.t.localBytes
	}
	cs.c, cs.local = c, local
	cs.bw = bufio.NewWriterSize(cw, 32<<10)
}

// countFrames credits n physical frames to the transport's ledger, and to the
// local-fabric ledger when this connection rides one.
func (cs *connState) countFrames(n int64) {
	cs.t.framesOut.Add(n)
	if cs.local {
		cs.t.localFrames.Add(n)
	}
}

// enqueue appends one data frame to the writer queue and wakes the writer.
// Nothing is shed and nothing waits: a queue that grows past one super-frame
// marks the transport congested, which holds the runtime's initiation
// instead. Returns false only when the connection is dead (the caller
// redials).
func (cs *connState) enqueue(w *wireMessage) bool {
	cs.qmu.Lock()
	if cs.dead {
		cs.qmu.Unlock()
		return false
	}
	if cs.qTail == nil || cs.qTail.n == chunkFrames {
		c := getChunk()
		if cs.qTail == nil {
			cs.qHead = c
		} else {
			cs.qTail.next = c
		}
		cs.qTail = c
	}
	cs.qTail.msgs[cs.qTail.n] = *w
	cs.qTail.n++
	cs.qLen++
	if cs.qLen > chunkFrames && !cs.congested {
		cs.congested = true
		cs.t.congestedN.Add(1)
	}
	cs.qmu.Unlock()
	cs.wake()
	return true
}

// uncongestLocked clears the connection's congested mark; caller holds qmu.
func (cs *connState) uncongestLocked() {
	if cs.congested {
		cs.congested = false
		cs.t.congestedN.Add(-1)
	}
}

func (cs *connState) wake() {
	select {
	case cs.notify <- struct{}{}:
	default:
	}
}

// take swaps the data-frame chunk chain out whole; the writer holds it
// until its write cycle flushes, then recycles each chunk through chunkPool.
func (cs *connState) take() *msgChunk {
	cs.qmu.Lock()
	cs.held += cs.qLen
	data := cs.qHead
	cs.qHead, cs.qTail, cs.qLen = nil, nil, 0
	cs.uncongestLocked()
	cs.qmu.Unlock()
	return data
}

// wrote moves n held data frames to written: their write cycle flushed. On a
// connection already settled they can never be acked, so they join its lost
// count.
func (cs *connState) wrote(n int) {
	cs.qmu.Lock()
	cs.held -= n
	cs.written += int64(n)
	late := int64(0)
	if cs.lostTo != nil {
		late = cs.unackedLocked() - cs.lost
		cs.lost += late
	}
	cs.qmu.Unlock()
	if late > 0 {
		cs.lostTo.Add(late)
	}
}

// release drops n held data frames whose write cycle failed; the caller has
// re-queued or counted them.
func (cs *connState) release(n int) {
	cs.qmu.Lock()
	cs.held -= n
	cs.qmu.Unlock()
}

// ackedUpTo records the peer's cumulative ack. Only the read loop calls it,
// so settle sees the final count.
func (cs *connState) ackedUpTo(n int64) {
	cs.qmu.Lock()
	cs.acked = max(cs.acked, n)
	cs.qmu.Unlock()
}

// unackedLocked returns the written messages the peer has not acked. An ack
// past written — the peer decoded part of a cycle whose flush then failed,
// or a misbehaving peer — leaves nothing unacked. Caller holds qmu.
func (cs *connState) unackedLocked() int64 {
	return max(cs.written-cs.acked, 0)
}

// markDead stops further enqueues and returns whatever was still queued
// (for re-queue or loss accounting). Idempotent; a later caller gets nil.
func (cs *connState) markDead() []wireMessage {
	cs.qmu.Lock()
	if cs.dead {
		cs.qmu.Unlock()
		return nil
	}
	cs.dead = true
	head := cs.qHead
	cs.qHead, cs.qTail, cs.qLen = nil, nil, 0
	cs.uncongestLocked()
	cs.qmu.Unlock()
	close(cs.deadCh)
	return flattenChunks(head)
}

// settle counts the written messages the peer never acked into lostTo. The
// read loop calls it on its way out, once it has taken every ack the peer
// sent.
func (cs *connState) settle(lostTo *atomic.Int64) {
	cs.qmu.Lock()
	lost := cs.unackedLocked()
	cs.lostTo, cs.lost = lostTo, lost
	cs.qmu.Unlock()
	lostTo.Add(lost)
}

// writeCycle writes one taken chain: each chunk coalesces into FrameBatch
// super-frames, the ack owed rides the first frame (or an ack-only frame when
// there is no data), and one flush ends the cycle. Only once the flush
// returns are the frames written; until then the writer holds their chunks,
// so a failed cycle can re-queue them. It returns how many data messages the
// cycle carried.
func (t *StreamTransport) writeCycle(cs *connState, chain *msgChunk) (int, error) {
	ack := cs.recvd.Load()
	pendingAck := uint64(0)
	if ack != cs.ackSent {
		pendingAck = uint64(ack)
	}
	n := 0
	for c := chain; c != nil; c = c.next {
		buf := cs.buf[:0]
		for data := c.msgs[:c.n]; len(data) > 0; {
			var k int
			buf, k = cs.enc.appendBatchFrame(buf, data, pendingAck)
			data = data[k:]
			pendingAck = 0
			cs.countFrames(1)
		}
		t.msgsOut.Add(int64(c.n))
		n += c.n
		cs.buf = buf
		if _, err := cs.bw.Write(buf); err != nil {
			return n, err
		}
	}
	if pendingAck != 0 {
		cs.buf = appendAckFrame(cs.buf[:0], pendingAck)
		cs.countFrames(1)
		if _, err := cs.bw.Write(cs.buf); err != nil {
			return n, err
		}
	}
	if err := cs.bw.Flush(); err != nil {
		return n, err
	}
	cs.ackSent = ack
	return n, nil
}

// writeLoop dials (outbound) then drains the connection's frame queue: wait
// for work, optionally let a flush window accumulate a wider batch, then
// write cycle after cycle until nothing is queued and no ack is owed. On a
// write error the connection is evicted and the failed cycle re-queues,
// ahead of everything still queued, toward a fresh connection.
func (t *StreamTransport) writeLoop(cs *connState) {
	defer t.wg.Done()
	if cs.c == nil && !t.dial(cs) {
		return
	}
	defer cs.finish()
	for {
		select {
		case <-t.closed:
			return
		case <-cs.deadCh:
			return
		case <-cs.notify:
		}
		if fw := time.Duration(t.flushWindow.Load()); fw > 0 {
			select {
			case <-t.closed:
				return
			case <-cs.deadCh:
				return
			case <-time.After(fw):
			}
		}
		for {
			chain := cs.take()
			if chain == nil && cs.recvd.Load() == cs.ackSent {
				break
			}
			n, err := t.writeCycle(cs, chain)
			if err != nil {
				failed := flattenChunks(chain)
				t.connBroken(cs, failed)
				cs.release(len(failed))
				return
			}
			cs.wrote(n)
			for c := chain; c != nil; {
				next := c.next
				chunkPool.Put(c)
				c = next
			}
		}
	}
}

// finish is the writer's exit: write the ack still owed, then close this
// side of the stream. Without the ack the peer would count messages this
// side decoded as lost. Close bounds the write with closeAckWait. The read
// loop keeps taking the peer's acks until the peer closes too, or for
// closeAckWait at most, and then closes the stream.
func (cs *connState) finish() {
	if ack := cs.recvd.Load(); ack != cs.ackSent {
		cs.countFrames(1)
		cs.bw.Write(appendAckFrame(cs.buf[:0], uint64(ack))) // a failed write surfaces in Flush
		_ = cs.bw.Flush()                                    // best effort: the stream closes either way
	}
	if hc, ok := cs.c.(interface{ CloseWrite() error }); ok {
		hc.CloseWrite()
	} else {
		cs.c.Close()
	}
	cs.c.SetReadDeadline(time.Now().Add(closeAckWait))
}

// connBroken handles a dead connection, from either loop: evict it from the
// routing pool and stop enqueues. failed — the frames of the writer's cycle
// that did not flush, older than anything still queued — and the queued
// frames re-queue toward a fresh connection, or count as lost when the
// transport is draining or closed. A failed frame may have partly got out,
// so its messages may arrive twice; the handlers absorb the second copy.
// What the connection wrote and never got acked is counted when its read
// loop settles it.
func (t *StreamTransport) connBroken(cs *connState, failed []wireMessage) {
	t.evict(cs) // first, so a send racing the death finds the queue markDead takes
	leftover := cs.markDead()
	requeue := append(failed, leftover...)
	if len(requeue) == 0 {
		return
	}
	if t.stopping() {
		t.dropsClosed.Add(int64(len(requeue)))
		return
	}
	// A fresh connection's own writer dials, so nothing here blocks. Only
	// outbound connections queue data, so cs.r is set.
	for i := range requeue {
		t.enqueue(cs.r, &requeue[i])
	}
}

// readLoop decodes the connection's frames: an ack records the peer's
// count, and data messages are handed to the sink and counted toward the
// ack this side owes. On its way out it settles
// the connection's loss count and retires it.
func (t *StreamTransport) readLoop(cs *connState) {
	defer t.wg.Done()
	defer t.retire(cs)
	br := bufio.NewReaderSize(cs.c, 32<<10)
	var dec wireDec
	for {
		ack, msgs, err := dec.readFrameMulti(br)
		if err != nil {
			if errors.Is(err, errMalformedFrame) {
				t.dropsDecode.Add(1) // corrupt frame; io errors are teardown
			}
			return
		}
		if ack > 0 {
			cs.ackedUpTo(int64(ack))
		}
		if len(msgs) == 0 {
			continue // ack-only frame
		}
		select {
		case <-cs.deadCh:
			// The writer is gone or going, so no ack can follow: the peer
			// counts these as lost, and delivering them would count them
			// twice.
			continue
		default:
		}
		// Ack first, so a delivery the caller can see is already owed its
		// ack (finish pays it even if the transport closes right after).
		cs.recvd.Add(int64(len(msgs)))
		cs.wake()
		for i := range msgs {
			t.deliverData(&msgs[i])
		}
	}
}

// deliverData decodes and routes one logical data message.
func (t *StreamTransport) deliverData(w *wireMessage) {
	if !t.Hosts(w.To) || t.Hosts(w.From) {
		// Misrouted (not hosted here), or forged: a node hosted here never
		// reaches this transport over the wire, and the sink takes a hosted
		// sender as proof that it runs on that node's shard goroutine.
		t.dropsMisroute.Add(1)
		return
	}
	var payload sim.Payload
	if w.typ != nil {
		var err error
		if payload, err = w.typ.dec(w.data); err != nil {
			t.dropsDecode.Add(1)
			return
		}
	}
	msg := Message{
		Kind:     MsgKind(w.Kind),
		From:     graph.NodeID(w.From),
		To:       graph.NodeID(w.To),
		EdgeID:   w.EdgeID,
		Latency:  w.Latency,
		SentTick: w.SentTick,
		Payload:  payload,
	}
	// The sender's delay rides the wire; the sink's calendar waits it out.
	if s := t.sink.Load(); s == nil || !(*s)(msg, time.Duration(w.DelayUS)*time.Microsecond) {
		t.dropsMisroute.Add(1) // no runtime took it; nothing holds it
	}
}

// conn returns r's pooled connection, creating it on first use: the send
// path pays one atomic load. It never blocks on the network: a new
// connection's writer dials (see dial) while frames queue behind it. A
// stopping transport opens no connections. A sender may still get a
// connection a beat after it died; enqueue's dead check covers that.
func (t *StreamTransport) conn(r *route) (*connState, error) {
	if cs := r.out.Load(); cs != nil {
		return cs, nil
	}
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if cs := r.out.Load(); cs != nil {
		return cs, nil
	}
	if t.stopping() {
		return nil, ErrTransportClosed
	}
	cs := t.newConnState(r)
	r.out.Store(cs)
	t.conns[cs] = struct{}{}
	// wg.Add under connMu: Close sweeps conns behind it before it waits.
	t.wg.Add(1)
	go t.writeLoop(cs)
	return cs, nil
}

// dial connects an outbound connection from its writer, retrying until
// dialTimeout so peers may start after us, and starts its read loop. False
// means it stopped: closed (Close counts the queue), draining (the queue is
// a closed-drop), or unreachable or declared dead by membership (the queue
// is a give-up drop, and the next send redials).
func (t *StreamTransport) dial(cs *connState) bool {
	start := time.Now()
	for {
		c, local, err := dialPeer(cs.r.addr)
		if err == nil {
			t.connMu.Lock()
			if t.isClosed() {
				t.connMu.Unlock()
				c.Close()
				return false
			}
			cs.attach(c, local)
			t.wg.Add(1)
			t.connMu.Unlock()
			go t.readLoop(cs)
			return true
		}
		draining := t.draining.Load()
		if draining || cs.r.down.Load() || time.Since(start) > t.dialTimeout {
			t.evict(cs)
			data := cs.markDead()
			t.forget(cs) // no read loop: nothing was written
			if draining {
				t.dropsClosed.Add(int64(len(data)))
			} else {
				t.dropsGiveUp.Add(int64(len(data)))
			}
			return false
		}
		select {
		case <-t.closed:
			return false
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// evict removes a broken connection from its route so the next send
// redials.
func (t *StreamTransport) evict(cs *connState) {
	if cs.r == nil {
		return
	}
	t.connMu.Lock()
	cs.r.out.CompareAndSwap(cs, nil)
	t.connMu.Unlock()
}

// retire is the read loop's exit: the connection is broken if nothing else
// killed it yet, and every ack the peer sent has been taken, so what it
// wrote and never got acked is counted — lost with a broken connection, or
// with the transport at Close — and it leaves the connection set.
func (t *StreamTransport) retire(cs *connState) {
	t.connBroken(cs, nil)
	cs.c.Close()
	if t.isClosed() {
		cs.settle(&t.dropsClosed)
	} else {
		cs.settle(&t.dropsBroken)
	}
	t.forget(cs)
}

// forget removes a finished connection from the connection set.
func (t *StreamTransport) forget(cs *connState) {
	t.connMu.Lock()
	delete(t.conns, cs)
	t.connMu.Unlock()
}
