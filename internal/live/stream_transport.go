package live

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

// wireMessage is one data message as the wire codec (wire.go) encodes it.
// Payloads travel as (registered type name, raw bytes) pairs — see codec.go.
// Seq is the sender-assigned reliable-delivery sequence number; an ack echoes
// it back.
type wireMessage struct {
	Kind        uint8
	Seq         uint64
	From        int
	To          int
	EdgeID      int
	Latency     int
	SentTick    int
	PayloadType string
	Payload     []byte
}

// Reliable-delivery defaults: until a peer has yielded an RTT sample the
// first retransmission fires after DefaultRetransmitRTO; once acks flow, the
// RTO adapts per peer (Jacobson-style srtt + 4·rttvar, clamped to
// [DefaultRTOMin, DefaultRTOMax] — see overload.go). Each retransmission
// doubles the wait, and after DefaultMaxRetransmits unacknowledged
// retransmissions the message is abandoned and counted as dropped.
const (
	DefaultRetransmitRTO  = 250 * time.Millisecond
	DefaultMaxRetransmits = 4
)

// DefaultDedupWindowTicks is the receiver dedup retention window: an entry
// is evicted once the newest SentTick seen by its shard has advanced past it
// by one to two windows. At the default 1ms tick this retains entries for
// ~8–16s, comfortably beyond the longest retransmission lifetime
// (250ms·(1+2+4+8) ≈ 3.8s), so bounded memory never re-admits a live
// retransmission.
const DefaultDedupWindowTicks = 8192

// pendShards and dedupShards split the reliable-delivery and dedup state so
// concurrent connections and node goroutines don't serialize on one lock.
const (
	pendShards  = 16
	dedupShards = 16
)

// StreamTransport is the transport-family-generic stream core: length-prefixed
// binary frames (wire.go) over any ordered byte stream. Two connection
// families (fabrics) plug in beneath it:
//
//   - TCP (NewTCPTransport): the cross-machine fabric.
//   - Unix domain sockets (NewUnixTransport, ListenUnix): co-located daemons
//     skip the TCP stack — no checksums, no Nagle/cork logic, no loopback
//     queueing. Dialed explicitly via "unix://PATH" peer addresses, or
//     automatically when SetPeerSockets advertises a socket for a peer whose
//     TCP address resolves to this host.
//
// Both fabrics share the wire codec, the super-frame batching, the reliable
// delivery machinery, and every counter below, so a mixed-fabric cluster is
// just a peers map with mixed address forms. Frames and bytes that traveled
// a unix socket are additionally counted in WireLocalFrames /
// WireLocalBytes, so harnesses can verify the fast path was actually taken.
//
// Each process hosts a subset of the graph's nodes behind one or more
// listeners; SetPeers maps every remote node to the listen address of the
// process hosting it. Messages between two locally hosted nodes
// short-circuit the socket and are delivered in memory.
//
// A remote message has one lifecycle: Send arms its latency delay, the delay
// hands it to the destination connection's writer queue, the writer drains
// the queue and registers what it is about to write for reliable delivery,
// and the peer's ack resolves it. Every connection has a writer goroutine
// draining its queue through a buffered writer, so the many messages gossip
// generates in one tick coalesce into one syscall, and everything bound for
// the same destination daemon within one drain coalesces into FrameBatch
// super-frames — one frame header, one pend entry, one retransmission timer,
// and one returning ack per batch (a batch of one is still a batch). Acks
// ride the ack section of outgoing frames instead of paying a frame each,
// and the receiver decodes a super-frame once and scatters each sub-message
// straight to the owning shard's mailbox through the DeliverySink seam.
// SetFlushWindow adds an optional delay that widens the batches further.
//
// Remote delivery is reliable up to a retransmission budget: every remote
// message carries a sequence number, the receiver acks each frame on the same
// connection with the Seq of its last message, and unacked super-frames are
// retransmitted whole with exponential backoff. A write failure evicts the
// broken connection and immediately re-queues the affected super-frames
// through the retransmit path, so the first retry redials at once instead of
// waiting out the RTO. A super-frame still unacked after the budget is
// abandoned and its messages counted as dropped. Receivers
// deduplicate on (EdgeID, From, SentTick, Kind) within a sliding tick window
// (DefaultDedupWindowTicks), so retransmissions and network duplicates are
// idempotent and the dedup set stays bounded over arbitrarily long runs.
//
// Outbound connections are dialed lazily (with retries, so a cluster's
// processes may start in any order) and pooled per destination address.
type StreamTransport struct {
	hosted map[graph.NodeID]bool // read-only after construction

	// listeners are the transport's accept sockets (TCP, unix — a
	// daemon typically has one TCP listener plus an optional unix socket).
	// Guarded by connMu; the first listener's address is Addr().
	listeners []streamListener

	buffer    int
	inboxMu   sync.Mutex
	inboxes   map[graph.NodeID]chan Message // lazily created on first Recv/legacy delivery
	inboxSnap atomic.Pointer[map[graph.NodeID]chan Message]
	sink      atomic.Pointer[DeliverySink]

	// Atomic because connection goroutines read them while the owner may
	// still be configuring (an eager peer can dial in before SetFlushWindow).
	flushWindow atomic.Int64 // time.Duration
	dedupWindow atomic.Int64 // ticks

	peerMu  sync.RWMutex
	peers   map[graph.NodeID]string
	sockets map[string]string // peer TCP addr -> advertised unix socket path

	connMu   sync.Mutex
	outs     map[string]*connState
	outsSnap atomic.Pointer[map[string]*connState] // republished under connMu on every change
	accepts  []*connState

	dialTimeout time.Duration // how long conn retries dialing an unreachable peer
	rto         time.Duration
	maxRetrans  int
	rtoMin      time.Duration // adaptive-RTO floor (raised by SetRetransmit)
	rtoMax      time.Duration // adaptive-RTO and backoff ceiling

	// Overload-protection knobs (caps tunable via SetOverloadLimits); <= 0
	// disables the corresponding mechanism.
	queueLimit  int // frames per connection writer queue
	pendLimit   int // unacked reliable sends across the transport
	breakerN    int // consecutive failures before a peer's breaker opens
	breakerWait time.Duration

	peerSt sync.Map // addr string -> *peerState, per peer listen address

	seq   atomic.Uint64
	pend  [pendShards]pendShard
	dedup [dedupShards]dedupShard

	delays         *timerWheel  // armed latency delays for not-yet-sent messages
	retries        *timerWheel  // armed retransmission timeouts (RTOs)
	bytesOut       atomic.Int64 // frame bytes written to sockets
	flushes        atomic.Int64 // socket write batches (syscalls; see countingWriter)
	framesOut      atomic.Int64 // physical frames written (a super-frame counts once)
	msgsOut        atomic.Int64 // logical data messages those frames carried
	localBytes     atomic.Int64 // subset of bytesOut that traveled a local fabric
	localFrames    atomic.Int64 // subset of framesOut that traveled a local fabric
	dropsGiveUp    atomic.Int64 // retransmission budget exhausted
	dropsClosed    atomic.Int64 // unacked or undelivered at Close
	dropsDecode    atomic.Int64 // undecodable wire payloads or corrupt frames
	dropsMisroute  atomic.Int64 // wire messages for nodes not hosted here
	retransmits    atomic.Int64
	dupsSuppressed atomic.Int64

	// Overload ledger (see OverloadCounts for the meaning of each).
	ovShedQueue   atomic.Int64
	ovShedPend    atomic.Int64
	ovMemberWait  atomic.Int64
	ovRetryTrim   atomic.Int64
	ovDeadPeer    atomic.Int64
	ovBreakerOpen atomic.Int64
	ovBreakerDrop atomic.Int64

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

// streamListener is one accept socket plus its fabric locality: connections
// accepted from a unix listener count toward the WireLocal* ledger.
type streamListener struct {
	ln    net.Listener
	local bool
}

// pendShard is one slice of the unacked-message map, guarded by its own lock.
type pendShard struct {
	mu sync.Mutex
	m  map[uint64]*pendingSend
}

// pendingSend is one unacknowledged reliable send awaiting ack: one whole
// FrameBatch super-frame whose sub-messages live in batch and whose pend key
// is the last sub-message's Seq. retry is the armed retransmission timer
// (stopped on ack or Close). sentAt and retransmitted feed the RTT estimator
// under Karn's rule: only an entry acked on its first attempt yields a sample.
type pendingSend struct {
	addr          string
	ps            *peerState // the peer's adaptive state, resolved once at admission
	key           uint64
	batch         []wireMessage // super-frame sub-messages
	member        bool          // batch carries membership traffic: exempt from shedding
	attempts      int
	retry         *wheelTimer
	sentAt        time.Time
	retransmitted bool
}

// msgCount returns the logical data messages this entry carries — the unit
// the drop and shed ledgers count in.
func (p *pendingSend) msgCount() int64 { return int64(len(p.batch)) }

// destinedTo reports whether every logical message of this entry targets
// node u — the per-node flush test for PeerDown. A batch mixing destinations
// is spared; the address-level breaker flush covers daemon-wide death.
func (p *pendingSend) destinedTo(u int) bool {
	for i := range p.batch {
		if p.batch[i].To != u {
			return false
		}
	}
	return true
}

// dedupKey identifies a message for receiver-side deduplication: the node
// pair and tick of the exchange half. From disambiguates the two endpoints
// initiating on the same edge in the same tick.
type dedupKey struct {
	edge     int
	from     graph.NodeID
	sentTick int
	kind     MsgKind
}

// shard spreads keys over the dedup shards with a cheap integer mix.
func (k dedupKey) shard() uint64 {
	h := uint64(k.edge)*0x9E3779B97F4A7C15 + uint64(k.from)*0xBF58476D1CE4E5B9 +
		uint64(uint32(k.sentTick))*0x94D049BB133111EB + uint64(k.kind)
	return (h >> 32) & (dedupShards - 1)
}

// dedupShard holds a generation pair of dedup sets. New entries land in cur;
// when the newest SentTick observed advances past the shard's horizon, prev
// is discarded and cur rotates into its place, reclaiming entries one to two
// windows old. Lookups consult both generations.
type dedupShard struct {
	mu      sync.Mutex
	cur     map[dedupKey]struct{}
	prev    map[dedupKey]struct{}
	maxTick int
	horizon int
}

// seen records k and reports whether it was already present (a duplicate).
// The hot path — a fresh key — costs a single map operation: inserting and
// checking whether the length grew detects cur-presence without a separate
// lookup, and only a fresh key pays the prev probe. A prev-duplicate leaves
// its insert in cur behind, which just extends its suppression by a window.
func (s *dedupShard) seen(k dedupKey, window int) bool {
	s.mu.Lock()
	if s.cur == nil {
		s.cur = make(map[dedupKey]struct{})
		s.horizon = k.sentTick + window
	}
	before := len(s.cur)
	s.cur[k] = struct{}{}
	if len(s.cur) == before {
		s.mu.Unlock()
		return true
	}
	if _, dup := s.prev[k]; dup {
		s.mu.Unlock()
		return true
	}
	if k.sentTick > s.maxTick {
		s.maxTick = k.sentTick
		if s.maxTick >= s.horizon {
			// Rotate by recycling the discarded generation: clear keeps the
			// map's buckets, so steady-state rotation never regrows a table
			// (rehash storms dominated this path when each window started
			// from a fresh map).
			old := s.prev
			s.prev = s.cur
			if old == nil {
				old = make(map[dedupKey]struct{})
			} else {
				clear(old)
			}
			s.cur = old
			s.horizon = s.maxTick + window
		}
	}
	s.mu.Unlock()
	return false
}

// size reports the shard's live entry count (tests verify eviction with it).
func (s *dedupShard) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cur) + len(s.prev)
}

// newStreamTransport builds the stream core with no listeners attached; the
// family constructors (NewTCPTransport, NewUnixTransport) attach theirs with
// addListener before the transport is handed out.
func newStreamTransport(local []graph.NodeID, buffer int) *StreamTransport {
	if buffer <= 0 {
		buffer = DefaultInboxBuffer
	}
	t := &StreamTransport{
		hosted:      make(map[graph.NodeID]bool, len(local)),
		buffer:      buffer,
		inboxes:     make(map[graph.NodeID]chan Message),
		peers:       make(map[graph.NodeID]string),
		delays:      newTimerWheel(0),
		retries:     newTimerWheel(0),
		outs:        make(map[string]*connState),
		dialTimeout: 10 * time.Second, // generous, so a cluster's processes may start in any order
		rto:         DefaultRetransmitRTO,
		maxRetrans:  DefaultMaxRetransmits,
		rtoMin:      DefaultRTOMin,
		rtoMax:      DefaultRTOMax,
		queueLimit:  DefaultQueueLimit,
		pendLimit:   DefaultPendingLimit,
		breakerN:    DefaultBreakerThreshold,
		breakerWait: DefaultBreakerCooldown,
		closed:      make(chan struct{}),
	}
	t.dedupWindow.Store(DefaultDedupWindowTicks)
	for _, u := range local {
		t.hosted[u] = true
	}
	return t
}

// addListener attaches one accept socket to the transport and starts its
// accept loop. Returns ErrTransportClosed after Close (the caller still owns
// ln then and must close it).
func (t *StreamTransport) addListener(ln net.Listener, local bool) error {
	sl := streamListener{ln: ln, local: local}
	t.connMu.Lock()
	select {
	case <-t.closed:
		t.connMu.Unlock()
		return ErrTransportClosed
	default:
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

// SetPeers installs (or extends) the node→address map used to route remote
// sends. Locally hosted nodes need no entry. Addresses select the fabric by
// form: "host:port" dials TCP (upgraded to a unix socket when SetPeerSockets
// advertises one and the host is local) and "unix://PATH" dials a unix socket
// directly.
func (t *StreamTransport) SetPeers(addrs map[graph.NodeID]string) {
	t.peerMu.Lock()
	defer t.peerMu.Unlock()
	for u, a := range addrs {
		t.peers[u] = a
	}
}

// SetPeerSockets advertises unix socket paths for peers addressed by TCP:
// when a peer's "host:port" address resolves to this host and sockets maps
// that address to a path, outbound connections dial the socket instead of
// TCP — the wire protocol is identical, only the kernel path shrinks. A peer
// whose socket cannot be dialed falls back to TCP after a short grace period
// (see dialPeer), so a stale advertisement degrades, it does not strand.
// Call alongside SetPeers, before the first Send.
func (t *StreamTransport) SetPeerSockets(sockets map[string]string) {
	t.peerMu.Lock()
	defer t.peerMu.Unlock()
	if t.sockets == nil {
		t.sockets = make(map[string]string, len(sockets))
	}
	for addr, path := range sockets {
		t.sockets[addr] = path
	}
}

// socketFor returns the advertised unix socket for a TCP peer address, or ""
// when none applies (no advertisement, or the address is not on this host).
func (t *StreamTransport) socketFor(addr string) string {
	t.peerMu.RLock()
	sock := t.sockets[addr]
	t.peerMu.RUnlock()
	if sock == "" || !addrIsLocalHost(addr) {
		return ""
	}
	return sock
}

// unixScheme is the peer-address prefix that selects the unix fabric
// explicitly. A plain "host:port" address dials TCP (possibly upgraded to an
// advertised unix socket).
const unixScheme = "unix://"

// unixPreferGrace is how long conn keeps retrying an advertised unix socket
// before degrading to TCP. Co-located daemons may accept TCP before their
// unix listener exists (gossipctl hands gossipd a pre-bound TCP listener fd,
// while the unix socket is only bound during startup); without the grace
// window the first dial would pool a TCP connection forever and the local
// fast path would never engage. A genuinely stale advertisement still falls
// back once the window passes.
const unixPreferGrace = 2 * time.Second

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
// address: "unix://PATH" dials the socket directly, plain "host:port" dials
// TCP — upgraded to a unix socket when SetPeerSockets advertised one for a
// peer on this host. elapsed is how long conn has been
// retrying this address, for the unix-preference grace window. The returned
// flag reports whether the stream is a unix socket, which routes its traffic
// into the WireLocal* counters.
func (t *StreamTransport) dialPeer(addr string, elapsed time.Duration) (net.Conn, bool, error) {
	if path, ok := strings.CutPrefix(addr, unixScheme); ok {
		c, err := net.DialTimeout("unix", path, 2*time.Second)
		if err != nil {
			return nil, true, err
		}
		return tuneUnixConn(c), true, nil
	}
	if sock := t.socketFor(addr); sock != "" {
		c, err := net.DialTimeout("unix", sock, 2*time.Second)
		if err == nil {
			return tuneUnixConn(c), true, nil
		}
		if elapsed < unixPreferGrace {
			return nil, false, fmt.Errorf("dial unix %s for %s: %w", sock, addr, err)
		}
		// Advertisement looks stale; degrade to TCP below.
	}
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	return c, false, err
}

// localHostIPs caches this machine's interface addresses for
// addrIsLocalHost. Interfaces are assumed stable for the process lifetime;
// a daemon that gains addresses after start simply won't auto-upgrade peers
// on those new addresses, which is a performance miss, not an error.
var localHostIPs struct {
	once sync.Once
	set  map[string]bool
}

// addrIsLocalHost reports whether the host part of a "host:port" address
// names this machine: "localhost", any loopback IP, or an IP assigned to a
// local interface. Hostnames other than "localhost" are not resolved — DNS
// in a dial decision would add latency and nondeterminism, and cluster
// tooling passes literal IPs.
func addrIsLocalHost(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return false
	}
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return false
	}
	if ip.IsLoopback() {
		return true
	}
	localHostIPs.once.Do(func() {
		localHostIPs.set = make(map[string]bool)
		ifAddrs, err := net.InterfaceAddrs()
		if err != nil {
			return
		}
		for _, a := range ifAddrs {
			if ipn, ok := a.(*net.IPNet); ok {
				localHostIPs.set[ipn.IP.String()] = true
			}
		}
	})
	return localHostIPs.set[ip.String()]
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

// SetRetransmit tunes reliable delivery: rto is the wait before the first
// retransmission (doubling per attempt), maxRetransmits the budget before a
// message is abandoned and counted as dropped. Zero values keep defaults;
// maxRetransmits < 0 disables retransmission entirely.
//
// An explicit rto also becomes the adaptive RTO's floor: the per-peer RTT
// estimator may only raise the timeout above it, never undercut it, so a
// caller that asked for a quiet wire (a long rto) or a deterministic test
// cadence (a short one) keeps what it asked for.
func (t *StreamTransport) SetRetransmit(rto time.Duration, maxRetransmits int) {
	if rto > 0 {
		t.rto = rto
		t.rtoMin = rto
		if t.rtoMax < 16*rto {
			t.rtoMax = 16 * rto
		}
	}
	if maxRetransmits != 0 {
		t.maxRetrans = maxRetransmits
	}
}

// SetOverloadLimits tunes the transport's bounded queues: queueFrames caps
// each connection's writer queue, pending caps the transport-wide unacked
// reliable-send set. Zero keeps the current value, negative disables the cap.
// Call before the first Send.
func (t *StreamTransport) SetOverloadLimits(queueFrames, pending int) {
	if queueFrames != 0 {
		t.queueLimit = queueFrames
	}
	if pending != 0 {
		t.pendLimit = pending
	}
}

// Overload returns the transport's overload-protection ledger: what the
// bounded queues shed, what membership backpressure delayed, and what the
// peer breakers refused.
func (t *StreamTransport) Overload() OverloadCounts {
	return OverloadCounts{
		ShedQueue:           t.ovShedQueue.Load(),
		ShedPend:            t.ovShedPend.Load(),
		MemberBackpressured: t.ovMemberWait.Load(),
		RetryBurstTrimmed:   t.ovRetryTrim.Load(),
		DroppedDeadPeer:     t.ovDeadPeer.Load(),
		BreakerOpens:        t.ovBreakerOpen.Load(),
		BreakerDrops:        t.ovBreakerDrop.Load(),
	}
}

// peer returns (creating on first use) the adaptive state for a peer address.
func (t *StreamTransport) peer(addr string) *peerState {
	if v, ok := t.peerSt.Load(addr); ok {
		return v.(*peerState)
	}
	v, _ := t.peerSt.LoadOrStore(addr, &peerState{})
	return v.(*peerState)
}

// allowSend consults ps's circuit breaker; true when breakers are disabled.
// The closed steady state is decided lock-free (see peerState.fastClosed).
func (t *StreamTransport) allowSend(ps *peerState) bool {
	if t.breakerN <= 0 || ps.fastClosed() {
		return true
	}
	return ps.allow(t.breakerN, time.Now())
}

// peerFailure records one delivery failure against addr; if that trips the
// breaker, the peer's pend entries are flushed so retransmission spend stops
// immediately.
func (t *StreamTransport) peerFailure(addr string) {
	if t.breakerN <= 0 {
		return
	}
	if t.peer(addr).failure(t.breakerN, t.breakerWait, time.Now()) {
		t.ovBreakerOpen.Add(1)
		t.ovBreakerDrop.Add(t.flushPend(func(p *pendingSend) bool { return p.addr == addr }))
	}
}

// flushPend removes every pend entry matching keep==true, stopping its
// retransmission timer, and returns how many logical messages it removed
// (a super-frame entry counts its sub-messages). Callers must not hold any
// pend shard lock.
func (t *StreamTransport) flushPend(match func(*pendingSend) bool) int64 {
	var n int64
	for i := range t.pend {
		sh := &t.pend[i]
		sh.mu.Lock()
		for seq, p := range sh.m {
			if match(p) {
				p.retry.Stop()
				delete(sh.m, seq)
				n += p.msgCount()
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// PeerDown implements PeerStatusSink: the membership layer declared node u
// dead. In-flight seqs destined to u are flushed and counted (whether or not
// breakers are enabled — a dead destination earns no retransmission budget),
// and when every node hosted at u's address is believed dead the address's
// breaker trips, halting new sends until a cooldown probe or PeerUp.
func (t *StreamTransport) PeerDown(u graph.NodeID) {
	t.ovDeadPeer.Add(t.flushPend(func(p *pendingSend) bool { return p.destinedTo(int(u)) }))
	t.peerMu.RLock()
	addr, ok := t.peers[u]
	hosted := 0
	if ok {
		for _, a := range t.peers {
			if a == addr {
				hosted++
			}
		}
	}
	t.peerMu.RUnlock()
	if !ok {
		return
	}
	ps := t.peer(addr)
	if ps.markDead(u, hosted) && t.breakerN > 0 {
		if ps.trip(t.breakerWait, time.Now()) {
			t.ovBreakerOpen.Add(1)
			t.ovBreakerDrop.Add(t.flushPend(func(p *pendingSend) bool { return p.addr == addr }))
		}
	}
}

// PeerUp implements PeerStatusSink: node u refuted its suspicion or rejoined.
// Its address's breaker closes so traffic resumes immediately.
func (t *StreamTransport) PeerUp(u graph.NodeID) {
	t.peerMu.RLock()
	addr, ok := t.peers[u]
	t.peerMu.RUnlock()
	if !ok {
		return
	}
	ps := t.peer(addr)
	ps.markAlive(u)
	ps.reset()
}

// Dropped returns the number of messages lost for any terminal reason since
// the transport started: retransmission give-ups, messages unacked or
// undelivered at Close, undecodable payloads, misroutes, and everything the
// overload protection shed or refused. Suppressed duplicates are not drops
// (their content arrived).
func (t *StreamTransport) Dropped() int64 {
	return t.dropsGiveUp.Load() + t.dropsClosed.Load() + t.dropsDecode.Load() +
		t.dropsMisroute.Load() + t.Overload().Shed()
}

// Retransmits returns the number of reliable-delivery retransmissions.
func (t *StreamTransport) Retransmits() int64 { return t.retransmits.Load() }

// DupsSuppressed returns the number of duplicate arrivals the receiver-side
// dedup swallowed.
func (t *StreamTransport) DupsSuppressed() int64 { return t.dupsSuppressed.Load() }

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

// pendingCount returns the logical messages registered for reliable delivery
// and not yet acked — the unit every drop and shed counter uses.
func (t *StreamTransport) pendingCount() int {
	n := 0
	for i := range t.pend {
		t.pend[i].mu.Lock()
		for _, p := range t.pend[i].m {
			n += len(p.batch)
		}
		t.pend[i].mu.Unlock()
	}
	return n
}

// dedupSize returns the number of live dedup entries (tests verify the
// tick-windowed eviction with it).
func (t *StreamTransport) dedupSize() int {
	n := 0
	for i := range t.dedup {
		n += t.dedup[i].size()
	}
	return n
}

// Faults implements FaultReporter with the transport's real-network ledger.
func (t *StreamTransport) Faults() FaultReport {
	return FaultReport{
		FaultCounts: FaultCounts{
			TransportDrops: t.Dropped(),
			Retransmits:    t.retransmits.Load(),
			DupsSuppressed: t.dupsSuppressed.Load(),
		},
		Overload: t.Overload(),
	}
}

// Send implements Transport. Local destinations are delivered in memory;
// remote destinations are encoded eagerly (so codec errors surface here)
// and handed to reliable delivery after the latency delay.
func (t *StreamTransport) Send(msg Message, delay time.Duration) error {
	select {
	case <-t.closed:
		return ErrTransportClosed
	default:
	}
	if t.draining.Load() {
		return ErrTransportClosed
	}
	if t.hosted[msg.To] {
		if s := t.sink.Load(); s != nil && (*s)(msg, delay) {
			return nil
		}
		if t.delays.schedule(delay, func() { t.deliverLocal(msg) }) == nil {
			t.dropsClosed.Add(1)
			return ErrTransportClosed
		}
		return nil
	}
	t.peerMu.RLock()
	addr, ok := t.peers[msg.To]
	t.peerMu.RUnlock()
	if !ok {
		return fmt.Errorf("live: no peer address for node %d", msg.To)
	}
	pt, data, err := encodePayload(msg.Payload)
	if err != nil {
		return err
	}
	w := wireMessage{
		Kind:        uint8(msg.Kind),
		Seq:         t.seq.Add(1),
		From:        int(msg.From),
		To:          int(msg.To),
		EdgeID:      msg.EdgeID,
		Latency:     msg.Latency,
		SentTick:    msg.SentTick,
		PayloadType: pt,
		Payload:     data,
	}
	if delay <= 0 {
		// Zero-latency fast path: when the connection is already pooled,
		// enqueueing is non-blocking, so the timer goroutine (the dominant
		// per-message cost at high rates) is skipped entirely. The first
		// message to a peer — or a redial after a break — still takes the
		// timer path so the dial never blocks the caller.
		if cs, ok := t.pooled(addr); ok {
			t.transmitOn(cs, addr, w)
			return nil
		}
	}
	if t.delays.schedule(delay, func() { t.transmit(addr, w) }) == nil {
		t.dropsClosed.Add(1)
		return ErrTransportClosed
	}
	return nil
}

// deliverLocal pushes msg onto its destination's inbox channel — the legacy
// delivery path for raw-transport users; the sharded runtime's sink bypasses
// it entirely.
func (t *StreamTransport) deliverLocal(msg Message) {
	ch := t.inbox(msg.To)
	select {
	case ch <- msg:
		return
	default:
	}
	select {
	case ch <- msg:
	case <-t.closed:
	}
}

// pendShard returns the shard owning seq.
func (t *StreamTransport) pendShard(seq uint64) *pendShard {
	return &t.pend[seq&(pendShards-1)]
}

// transmit hands w to the destination daemon's aggregation queue once its
// latency delay has elapsed. This is where the breaker gates admission: a
// refused send is a terminal, counted loss (same contract as an injected drop
// — gossip re-converges). Reliable-delivery registration, and the pend cap,
// happen per super-frame at flush time (registerBatch).
func (t *StreamTransport) transmit(addr string, w wireMessage) { t.transmitOn(nil, addr, w) }

// transmitOn is transmit with an optional already-resolved connection hint
// (the send fast path just looked it up; re-resolving costs a map lookup per
// message). A nil or stale hint falls back to the ordinary dial path.
func (t *StreamTransport) transmitOn(cs *connState, addr string, w wireMessage) {
	if !t.allowSend(t.peer(addr)) {
		t.ovBreakerDrop.Add(1)
		return
	}
	t.writeQueuedOn(cs, addr, &w)
}

// writeQueued queues w on addr's aggregation queue, dialing if needed. A
// message becomes reliable only once its super-frame is flushed; one that
// never reaches a writer queue — the peer is undialable, or the connection
// died twice in a row — is a terminal, counted loss, exactly like a
// retransmission give-up.
func (t *StreamTransport) writeQueued(addr string, w *wireMessage) {
	t.writeQueuedOn(nil, addr, w)
}

// writeQueuedOn is writeQueued with an optional pre-resolved connection: when
// the caller already holds the pooled connState for addr the first attempt
// skips the conn() lookup entirely. A failed enqueue clears the hint so the
// next attempt re-dials through the ordinary path.
func (t *StreamTransport) writeQueuedOn(cs *connState, addr string, w *wireMessage) {
	for attempt := 0; attempt < 2; attempt++ {
		if cs == nil {
			var err error
			cs, err = t.conn(addr)
			if err != nil {
				if errors.Is(err, ErrTransportClosed) {
					t.dropsClosed.Add(1)
				} else {
					t.peerFailure(addr)
					t.dropsGiveUp.Add(1)
				}
				return
			}
		}
		if cs.enqueue(w) {
			return
		}
		cs = nil
	}
	t.dropsGiveUp.Add(1)
}

// batchPool recycles super-frame batch slices between registerBatch and the
// first-attempt ack path. In the steady state every super-frame is acked on
// its first attempt, so without recycling each one allocates (and the GC
// zeroes, copies, and scans) up to maxBatchMsgs of wireMessage — the single
// largest allocation source on the local-fabric hot path. Entries hold
// *[]wireMessage to keep Get/Put free of slice-header boxing allocations.
var batchPool sync.Pool

// registerBatch admits one about-to-be-written super-frame to reliable
// delivery: one pend entry and one retransmission timer for the whole batch,
// keyed by its last sub-message's Seq — the receiver decodes the batch once
// and acks exactly that Seq. The sub-messages are copied out of the drained
// queue slice (which the writer recycles). ok=false means the batch was
// refused admission — transport closed, or the pend cap with no gossip left
// to shed — a terminal, counted loss; the caller must not write the frame.
func (t *StreamTransport) registerBatch(addr string, ps *peerState, msgs []wireMessage) (key uint64, ok bool) {
	var batch []wireMessage
	if v, _ := batchPool.Get().(*[]wireMessage); v != nil {
		batch = append((*v)[:0], msgs...)
	} else {
		batch = append([]wireMessage(nil), msgs...)
	}
	member := false
	for i := range batch {
		if MsgKind(batch[i].Kind) == MsgMember {
			member = true
			break
		}
	}
	key = batch[len(batch)-1].Seq
	p := &pendingSend{addr: addr, ps: ps, key: key, batch: batch, member: member, sentAt: time.Now()}
	sh := t.pendShard(key)
	sh.mu.Lock()
	select {
	case <-t.closed:
		sh.mu.Unlock()
		t.dropsClosed.Add(int64(len(batch)))
		return 0, false
	default:
	}
	if sh.m == nil {
		sh.m = make(map[uint64]*pendingSend)
	}
	if t.pendLimit > 0 && !member {
		perShard := t.pendLimit / pendShards
		if perShard < 1 {
			perShard = 1
		}
		if len(sh.m) >= perShard && !t.shedOldestLocked(sh) {
			sh.mu.Unlock()
			t.ovShedPend.Add(int64(len(batch)))
			return 0, false
		}
	}
	sh.m[key] = p
	t.armRetryLocked(p)
	sh.mu.Unlock()
	return key, true
}

// shedOldestLocked evicts the lowest-seq gossip entry of a full pend shard
// (oldest-first shedding: the oldest in-flight payload is the most likely to
// have been superseded by a later exchange). False when the shard holds only
// membership entries. The caller holds sh.mu.
func (t *StreamTransport) shedOldestLocked(sh *pendShard) bool {
	var oldest *pendingSend
	for _, q := range sh.m {
		if q.member {
			continue
		}
		if oldest == nil || q.key < oldest.key {
			oldest = q
		}
	}
	if oldest == nil {
		return false
	}
	oldest.retry.Stop()
	delete(sh.m, oldest.key)
	t.ovShedPend.Add(oldest.msgCount())
	return true
}

// armRetryLocked schedules the next retransmission for p; p's pend shard
// must be locked by the caller. The base timeout adapts to the peer's
// measured round trip (see peerState.rto) and doubles per attempt up to
// rtoMax.
func (t *StreamTransport) armRetryLocked(p *pendingSend) {
	backoff := p.ps.rto(t.rto, t.rtoMin, t.rtoMax)
	for i := 0; i < p.attempts && backoff < t.rtoMax; i++ {
		backoff <<= 1
	}
	if backoff > t.rtoMax {
		backoff = t.rtoMax
	}
	seq := p.key
	p.retry = t.retries.schedule(backoff, func() { t.retry(seq) })
}

// retry retransmits one unacked super-frame, or abandons it once the budget
// is spent. A no-op if the ack arrived (or the transport closed) in the
// meantime.
func (t *StreamTransport) retry(seq uint64) {
	sh := t.pendShard(seq)
	sh.mu.Lock()
	p, ok := sh.m[seq]
	if !ok {
		sh.mu.Unlock()
		return
	}
	select {
	case <-t.closed:
		sh.mu.Unlock()
		return // Close sweeps and counts the pending map
	default:
	}
	p.attempts++
	if t.maxRetrans < 0 || p.attempts > t.maxRetrans {
		addr := p.addr
		delete(sh.m, seq)
		sh.mu.Unlock()
		t.dropsGiveUp.Add(p.msgCount())
		t.peerFailure(addr)
		return
	}
	if t.breakerN > 0 && !p.ps.fastClosed() && !p.ps.allowRetry(t.breakerN, time.Now()) {
		// The peer's breaker opened since this message was sent: stop
		// spending retransmission budget on it.
		delete(sh.m, seq)
		sh.mu.Unlock()
		t.ovBreakerDrop.Add(p.msgCount())
		return
	}
	p.retransmitted = true
	t.armRetryLocked(p)
	sh.mu.Unlock()
	t.retransmits.Add(p.msgCount())
	t.writeRetry(p.addr, p)
}

// writeRetry re-queues a registered super-frame for retransmission on addr's
// writer (qRetry, drained ahead of fresh data — the batch is older than
// anything queued since). The batch stays pending either way: a failed dial
// or dead connection leaves delivery to the next RTO firing.
func (t *StreamTransport) writeRetry(addr string, p *pendingSend) {
	for attempt := 0; attempt < 2; attempt++ {
		cs, err := t.conn(addr)
		if err != nil {
			if !errors.Is(err, ErrTransportClosed) {
				t.peerFailure(addr)
			}
			return
		}
		if cs.enqueueRetry(p) {
			return
		}
	}
}

// retryNow fires seq's retransmission immediately — the broken-connection
// path: a failed write evicts the connection and calls this, so the first
// retry redials at once instead of waiting out the RTO backoff.
func (t *StreamTransport) retryNow(seq uint64) {
	sh := t.pendShard(seq)
	sh.mu.Lock()
	p, ok := sh.m[seq]
	if ok && p.retry != nil {
		p.retry.Stop()
	}
	sh.mu.Unlock()
	if ok {
		t.retry(seq)
	}
}

// ack resolves one pending super-frame: its retransmission timer is stopped,
// the entry dropped, and the peer's adaptive state credited — an RTT sample
// when the frame was never retransmitted (Karn's rule), a breaker success
// either way.
func (t *StreamTransport) ack(seq uint64) {
	sh := t.pendShard(seq)
	sh.mu.Lock()
	p, ok := sh.m[seq]
	if ok {
		p.retry.Stop()
		delete(sh.m, seq)
	}
	sh.mu.Unlock()
	if !ok {
		return
	}
	if !p.retransmitted {
		p.ps.observeRTT(time.Since(p.sentAt))
		// Acked on the first attempt: retry() marks retransmitted under the
		// shard lock before any requeue, and the writer consumed the original
		// bytes before they could be acked, so this batch slice is provably
		// unaliased — recycle it.
		b := p.batch[:0]
		p.batch = nil
		batchPool.Put(&b)
	}
	p.ps.success()
}

// Recv implements Transport. Inbox channels exist only for nodes actually
// received on — the sharded runtime never calls Recv, so hosting 100k nodes
// costs a set entry each, not a buffered channel.
func (t *StreamTransport) Recv(u graph.NodeID) <-chan Message {
	if !t.hosted[u] {
		return nil
	}
	return t.inbox(u)
}

// inbox returns u's inbox channel, creating it on first use. Callers must
// have checked t.hosted[u]. The steady state is one atomic load and a map
// read of an immutable snapshot — the delivery path calls this per message,
// and a shared mutex here serializes otherwise-independent read loops.
func (t *StreamTransport) inbox(u graph.NodeID) chan Message {
	if m := t.inboxSnap.Load(); m != nil {
		if ch, ok := (*m)[u]; ok {
			return ch
		}
	}
	t.inboxMu.Lock()
	ch := t.inboxes[u]
	if ch == nil {
		ch = make(chan Message, t.buffer)
		t.inboxes[u] = ch
		next := make(map[graph.NodeID]chan Message, len(t.inboxes))
		for k, v := range t.inboxes {
			next[k] = v
		}
		t.inboxSnap.Store(&next)
	}
	t.inboxMu.Unlock()
	return ch
}

// Hosts implements SinkTransport without materializing an inbox.
func (t *StreamTransport) Hosts(u graph.NodeID) bool { return t.hosted[u] }

// SetSink implements SinkTransport: locally destined sends and wire arrivals
// for hosted nodes are handed to sink instead of inbox channels.
func (t *StreamTransport) SetSink(sink DeliverySink) bool {
	if sink == nil {
		t.sink.Store(nil)
	} else {
		t.sink.Store(&sink)
	}
	return true
}

// Close implements Transport: it stops the listener, all connections and
// delivery timers, and counts undelivered or unacked messages as dropped.
func (t *StreamTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.connMu.Lock()
		lns := append([]streamListener(nil), t.listeners...)
		t.connMu.Unlock()
		for _, sl := range lns {
			sl.ln.Close()
		}
		t.dropsClosed.Add(t.delays.close())
		t.retries.close() // RTOs aren't deliveries; the pend sweep below counts them
		for i := range t.pend {
			sh := &t.pend[i]
			sh.mu.Lock()
			for seq, p := range sh.m {
				p.retry.Stop()
				delete(sh.m, seq)
				t.dropsClosed.Add(p.msgCount())
			}
			sh.mu.Unlock()
		}
		t.connMu.Lock()
		for _, cs := range t.outs {
			// Rescue backpressured enqueuers before the socket dies. The
			// queued frames were never pend-registered (the sweep above
			// missed them), so count them here; queued retransmissions were
			// swept as pend entries already.
			data, _ := cs.markDead()
			t.dropsClosed.Add(int64(len(data)))
			cs.c.Close()
		}
		for _, cs := range t.accepts {
			cs.markDead()
			cs.c.Close()
		}
		t.connMu.Unlock()
	})
	t.wg.Wait()
	// Delay callbacks already running when the wheel closed are not in wg; each
	// sees closed and counts its message. The ledger is final once they finish.
	for t.delays.len() > 0 {
		time.Sleep(time.Millisecond)
	}
	return nil
}

// queueDepth returns the messages handed to a connection and not yet
// registered for reliable delivery: in a writer queue (fresh or awaiting
// retransmission) or taken by a writer that has not registered them yet.
func (t *StreamTransport) queueDepth() int {
	t.connMu.Lock()
	conns := make([]*connState, 0, len(t.outs)+len(t.accepts))
	for _, cs := range t.outs {
		conns = append(conns, cs)
	}
	conns = append(conns, t.accepts...)
	t.connMu.Unlock()
	n := 0
	for _, cs := range conns {
		cs.qmu.Lock()
		n += cs.qLen + len(cs.qRetry) + cs.held
		cs.qmu.Unlock()
	}
	return n
}

// Drain implements Drainer: stop admitting sends and stop the latency timers
// (a draining process is leaving — a not-yet-sent message is a counted loss),
// then wait for every message past its timer to resolve before closing. A
// message is in one stage at a time and only moves forward — delay callback,
// writer queue, writer-held, pend — so the drain is clean once the four
// stages, read in that order, are all empty. A first transmission already
// running when the drain began either finishes its dial and flushes, or is
// refused by the draining gate: a closed-drop the report shows as abandoned,
// like the stopped timers. On deadline expiry the transport closes anyway and
// the report says what was left in each stage.
func (t *StreamTransport) Drain(ctx context.Context) (DrainReport, error) {
	start := time.Now()
	select {
	case <-t.closed:
		return DrainReport{}, ErrTransportClosed
	default:
	}
	t.draining.Store(true)
	closedBefore := t.dropsClosed.Load()
	t.dropsClosed.Add(t.delays.close())
	var rep DrainReport
	poll := time.NewTimer(2 * time.Millisecond)
	defer poll.Stop()
	for {
		// delays.len() after close: callbacks past its check and still running.
		if t.delays.len() == 0 && t.queueDepth() == 0 && t.pendingCount() == 0 {
			rep.Clean = true
			rep.AbandonedTimers = t.dropsClosed.Load() - closedBefore
			err := t.Close()
			rep.Wall = time.Since(start)
			return rep, err
		}
		select {
		case <-ctx.Done():
			rep.AbandonedTimers = t.dropsClosed.Load() - closedBefore
			rep.QueuedAtClose = t.delays.len() + t.queueDepth()
			rep.PendingAtClose = t.pendingCount()
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
		cs := t.newConnState(c, "", sl.local)
		t.connMu.Lock()
		select {
		case <-t.closed:
			// Accepted in the middle of Close after it swept the conn
			// lists; drop the connection instead of leaking it.
			t.connMu.Unlock()
			c.Close()
			continue
		default:
		}
		t.accepts = append(t.accepts, cs)
		t.wg.Add(2)
		t.connMu.Unlock()
		go t.readLoop(cs)
		go t.writeLoop(cs)
	}
}

// connState is one connection (pooled outbound or accepted inbound). Frames
// are not written by senders directly: they are queued under qmu and drained
// by the connection's writer goroutine (writeLoop), which batches everything
// available — data frames and pending acks — through one buffered writer, so
// a burst of same-tick messages costs one syscall instead of one each.
type connState struct {
	t     *StreamTransport
	c     net.Conn
	addr  string // peer listen address for pooled outbound conns; "" for accepted
	local bool   // connection rides a local fabric (unix socket)

	qmu        sync.Mutex
	qHead      *msgChunk // chunked data-frame queue; see msgChunk
	qTail      *msgChunk
	qLen       int
	qAcks      []uint64
	qRetry     []*pendingSend // registered super-frames awaiting retransmission
	held       int            // data frames the writer took and has not yet registered
	spillAcks  []uint64       // retired queue slices, reused to avoid reallocating
	spillRetry []*pendingSend
	dead       bool

	notify  chan struct{} // wake the writer (capacity 1)
	deadCh  chan struct{} // closed by markDead
	spaceCh chan struct{} // writer signals queue space to backpressured enqueuers

	// Writer-goroutine-owned state: the buffered writer, the encoder's
	// intern table and scratch, and the frame build buffer.
	bw  *bufio.Writer
	enc wireEnc
	buf []byte

	// Read-loop-owned one-entry payload-decoder memo. The PayloadType
	// strings a connection delivers come from its decoder's intern table, so
	// consecutive messages of the same type share the exact string value and
	// the equality test hits its pointer fast path — the codec registry's
	// atomic load and map lookup are paid once per type switch, not per
	// message.
	decName string
	decFn   PayloadDecoder
}

// chunkFrames is the per-chunk capacity of the writer queue, deliberately
// equal to maxBatchMsgs so one full chunk encodes as exactly one full-size
// super-frame and the framing an unthrottled sender produces is byte-for-byte
// what a contiguous queue produced.
const chunkFrames = maxBatchMsgs

// msgChunk is one fixed-size segment of a connection's writer queue. A
// contiguous []wireMessage queue doubles in place as a backlog builds, and
// against an unthrottled sender that means repeatedly allocating, zeroing and
// copying a multi-megabyte array while the GC rescans all of it — the
// dominant cost on the local-fabric hot path. Chunks never move once linked:
// enqueue fills the tail, the writer consumes whole chunks head-first, and
// retired chunks recycle through chunkPool. Entries are not cleared on
// recycle; the next fill overwrites them, and anything stale past n is at
// worst a short-lived payload reference.
type msgChunk struct {
	next *msgChunk
	n    int
	msgs [chunkFrames]wireMessage
}

var chunkPool = sync.Pool{New: func() any { return new(msgChunk) }}

func getChunk() *msgChunk {
	c := chunkPool.Get().(*msgChunk)
	c.next, c.n = nil, 0
	return c
}

// flattenChunks copies a chunk chain into one slice (cold paths only:
// connection teardown and drain accounting), recycling the chunks.
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

// decodePayload is the registry's decodePayload through the connection's
// memo. Only the connection's read loop may call it.
func (cs *connState) decodePayload(name string, data []byte) (sim.Payload, error) {
	if name == "" {
		return nil, nil
	}
	if name == cs.decName {
		return cs.decFn(data)
	}
	dec, ok := codecState.Load().decoders[name]
	if !ok {
		return nil, fmt.Errorf("live: unknown wire payload type %q", name)
	}
	cs.decName, cs.decFn = name, dec
	return dec(data)
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

func (t *StreamTransport) newConnState(c net.Conn, addr string, local bool) *connState {
	cw := countingWriter{c: c, n: &t.bytesOut, flushes: &t.flushes}
	if local {
		cw.localN = &t.localBytes
	}
	return &connState{
		t:       t,
		c:       c,
		addr:    addr,
		local:   local,
		notify:  make(chan struct{}, 1),
		deadCh:  make(chan struct{}),
		spaceCh: make(chan struct{}, 1),
		bw:      bufio.NewWriterSize(cw, 32<<10),
	}
}

// countFrames credits n physical frames to the transport's ledger, and to the
// local-fabric ledger when this connection rides one.
func (cs *connState) countFrames(n int64) {
	cs.t.framesOut.Add(n)
	if cs.local {
		cs.t.localFrames.Add(n)
	}
}

// memberWaitMax bounds how long a backpressured membership enqueue blocks
// before leaving delivery to its RTO timer — the escape hatch that keeps a
// stalled connection from wedging a node goroutine (and with it the whole
// runtime's shutdown) forever.
const memberWaitMax = 2 * time.Second

// enqueue queues one data frame for the writer, enforcing the transport's
// writer-queue cap. Past the cap, gossip frames shed the oldest queued gossip
// frame (it has no pend entry yet — a terminal, counted loss; push-pull
// re-converges) and membership frames apply hard backpressure: they shed
// gossip to make room for themselves, and block when the queue is entirely
// membership traffic. Returns false only when the connection is dead (the
// caller redials); a shed newcomer returns true — it was handled, terminally.
func (cs *connState) enqueue(w *wireMessage) bool {
	t := cs.t
	limit := t.queueLimit
	isMember := MsgKind(w.Kind) == MsgMember
	shed := int64(0)
	counted := false // MemberBackpressured once per blocking episode
	deadline := time.Time{}
	cs.qmu.Lock()
	for !cs.dead && limit > 0 && cs.qLen >= limit {
		// Shed the oldest queued gossip frame; membership frames are never
		// shed from the queue.
		if cs.shedOldestGossipLocked() {
			shed++
			continue
		}
		// Queue entirely membership frames. A gossip newcomer is shed; a
		// membership newcomer waits for the writer. The wait is bounded so a
		// wedged connection cannot stall the caller forever: past the
		// deadline the frame is queued anyway (the cap overshoots by at most
		// the number of waiters).
		if !isMember {
			cs.qmu.Unlock()
			t.ovShedQueue.Add(shed + 1)
			return true
		}
		if !counted {
			counted = true
			deadline = time.Now().Add(memberWaitMax)
			t.ovMemberWait.Add(1)
		} else if time.Now().After(deadline) {
			break
		}
		cs.qmu.Unlock()
		select {
		case <-cs.spaceCh:
		case <-cs.deadCh:
		case <-t.closed:
		case <-time.After(10 * time.Millisecond):
		}
		cs.qmu.Lock()
	}
	if cs.dead {
		cs.qmu.Unlock()
		t.ovShedQueue.Add(shed)
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
	cs.qmu.Unlock()
	t.ovShedQueue.Add(shed)
	cs.wake()
	return true
}

// shedOldestGossipLocked removes the oldest queued gossip frame; false means
// the queue holds only membership frames. Caller holds qmu.
func (cs *connState) shedOldestGossipLocked() bool {
	var prev *msgChunk
	for c := cs.qHead; c != nil; prev, c = c, c.next {
		for i := 0; i < c.n; i++ {
			if MsgKind(c.msgs[i].Kind) == MsgMember {
				continue
			}
			copy(c.msgs[i:], c.msgs[i+1:c.n])
			c.n--
			cs.qLen--
			if c.n == 0 {
				if prev == nil {
					cs.qHead = c.next
				} else {
					prev.next = c.next
				}
				if cs.qTail == c {
					cs.qTail = prev
				}
				chunkPool.Put(c)
			}
			return true
		}
	}
	return false
}

// enqueueRetry queues one already-registered super-frame for retransmission.
// No cap applies: the population is bounded by the pend cap, and shedding
// here would break the retransmission contract. False when the connection is
// dead (the caller redials once; the entry stays pending either way).
func (cs *connState) enqueueRetry(p *pendingSend) bool {
	cs.qmu.Lock()
	if cs.dead {
		cs.qmu.Unlock()
		return false
	}
	cs.qRetry = append(cs.qRetry, p)
	cs.qmu.Unlock()
	cs.wake()
	return true
}

// enqueueAck queues one ack seq; best effort (a lost ack only costs the peer
// a deduplicated retransmission).
func (cs *connState) enqueueAck(seq uint64) {
	cs.qmu.Lock()
	if cs.dead {
		cs.qmu.Unlock()
		return
	}
	cs.qAcks = append(cs.qAcks, seq)
	cs.qmu.Unlock()
	cs.wake()
}

func (cs *connState) wake() {
	select {
	case cs.notify <- struct{}{}:
	default:
	}
}

// take swaps the queues out: the data-frame chunk chain whole (the writer
// consumes it chunk by chunk and recycles each through chunkPool), the ack
// and retry slices against recycled spill backing so steady-state batching
// performs no allocations. Only the writer goroutine calls it, so the
// retired slices are always consumed before the next swap.
func (cs *connState) take() (data *msgChunk, acks []uint64, rets []*pendingSend) {
	cs.qmu.Lock()
	cs.held += cs.qLen
	data, cs.qHead, cs.qTail, cs.qLen = cs.qHead, nil, nil, 0
	acks, cs.qAcks = cs.qAcks, cs.spillAcks[:0]
	rets, cs.qRetry = cs.qRetry, cs.spillRetry[:0]
	cs.spillAcks, cs.spillRetry = acks, rets
	cs.qmu.Unlock()
	if data != nil {
		// The queue emptied: wake one backpressured membership enqueuer.
		select {
		case cs.spaceCh <- struct{}{}:
		default:
		}
	}
	return data, acks, rets
}

// registered moves n taken data frames out of the writer-held count: they
// now have a pend entry, or were refused one and counted.
func (cs *connState) registered(n int) {
	cs.qmu.Lock()
	cs.held -= n
	cs.qmu.Unlock()
}

// markDead stops further enqueues and returns whatever was still queued —
// data frames (for re-queue or loss accounting) and registered
// retransmissions (their pend entries redial via retryNow). Idempotent; the
// second caller gets nil.
func (cs *connState) markDead() ([]wireMessage, []*pendingSend) {
	cs.qmu.Lock()
	if cs.dead {
		cs.qmu.Unlock()
		return nil, nil
	}
	cs.dead = true
	head, rets := cs.qHead, cs.qRetry
	cs.qHead, cs.qTail, cs.qLen = nil, nil, 0
	cs.qAcks, cs.qRetry = nil, nil
	cs.qmu.Unlock()
	close(cs.deadCh)
	return flattenChunks(head), rets
}

// batchMsgBytes estimates one sub-message's encoded footprint for splitting
// an aggregation drain into super-frames: the payload plus a generous field
// allowance, so a full chunk of maxBatchMsgs stays well under maxWireBody.
func batchMsgBytes(w *wireMessage) int {
	return 32 + len(w.Payload) + len(w.PayloadType)
}

// maxBatchBytes bounds the estimated bytes one super-frame aggregates.
const maxBatchBytes = 1 << 20

// writeBatch encodes one drained batch into the buffered writer and returns
// the pend keys of the super-frames it wrote (for the broken-connection
// path). Retransmitted super-frames go first — they are older than anything
// drained this pass — then the queued data coalesces into FrameBatch
// super-frames, each registered as ONE reliable send (registerBatch) before
// its bytes are written; pending acks hoist to the first frame's header.
func (t *StreamTransport) writeBatch(cs *connState, data []wireMessage, acks []uint64, rets []*pendingSend) ([]uint64, error) {
	var keys []uint64
	buf := cs.buf[:0]
	for ri, p := range rets {
		buf = cs.enc.appendBatchFrame(buf, p.batch, acks)
		acks = nil
		cs.countFrames(1)
		t.msgsOut.Add(int64(len(p.batch)))
		keys = append(keys, p.key)
		rets[ri] = nil // the slice is recycled; don't pin acked batches
	}
	ps := (*peerState)(nil)
	if len(data) > 0 {
		ps = t.peer(cs.addr)
	}
	for start := 0; start < len(data); {
		end := start + 1
		size := batchMsgBytes(&data[start])
		for end < len(data) && end-start < maxBatchMsgs && size < maxBatchBytes {
			size += batchMsgBytes(&data[end])
			end++
		}
		chunk := data[start:end]
		start = end
		key, ok := t.registerBatch(cs.addr, ps, chunk)
		cs.registered(len(chunk))
		if !ok {
			continue // refused admission: a counted terminal loss, not written
		}
		buf = cs.enc.appendBatchFrame(buf, chunk, acks)
		acks = nil
		cs.countFrames(1)
		t.msgsOut.Add(int64(len(chunk)))
		keys = append(keys, key)
	}
	if len(acks) > 0 {
		buf = cs.enc.appendFrame(buf, nil, acks)
		cs.countFrames(1)
	}
	cs.buf = buf
	if len(buf) == 0 {
		return keys, nil
	}
	_, err := cs.bw.Write(buf)
	return keys, err
}

// writeLoop drains the connection's frame queue: wait for work, optionally
// let a flush window accumulate a wider batch, write everything queued, then
// flush once. On a write error the connection is evicted, every possibly
// unsent super-frame is pushed straight back through the retransmit path, and
// the data frames not yet registered re-queue toward a fresh connection.
func (t *StreamTransport) writeLoop(cs *connState) {
	defer t.wg.Done()
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
		var cycleKeys []uint64
		for {
			chain, acks, rets := cs.take()
			if chain == nil && len(acks) == 0 && len(rets) == 0 {
				break
			}
			// Consume the chain one chunk per writeBatch call — acks and
			// retransmissions ride the first — recycling each chunk as soon as
			// its frames are encoded (registerBatch copies sub-messages out).
			c := chain
			for first := true; first || c != nil; first = false {
				var data []wireMessage
				if c != nil {
					data = c.msgs[:c.n]
				}
				keys, err := t.writeBatch(cs, data, acks, rets)
				if err != nil {
					// Super-frames registered this cycle retry via their keys.
					// The current chunk is fully registered (or counted) by the
					// time a write can fail, so only the untouched remainder of
					// the chain re-queues.
					var rest []wireMessage
					if c != nil {
						rest = flattenChunks(c.next)
						chunkPool.Put(c)
					}
					t.connBroken(cs, rest, append(cycleKeys, keys...))
					return
				}
				cycleKeys = append(cycleKeys, keys...)
				acks, rets = nil, nil
				if c != nil {
					next := c.next
					chunkPool.Put(c)
					c = next
				}
			}
		}
		// Super-frames written into the buffered writer are not on the wire
		// until this flush; on error their keys retry immediately rather than
		// waiting out the RTO (over-retrying is safe — the receiver dedups).
		if err := cs.bw.Flush(); err != nil {
			t.connBroken(cs, nil, cycleKeys)
			return
		}
	}
}

// connBroken handles a dead connection, from either loop: stop enqueues,
// evict it from the pool, and make sure nothing vanishes silently. Reliable
// in-flight work — registered super-frames (inFlightKeys plus anything on the
// retransmission queue) — goes through retryNow, which redials immediately;
// retransmission keeps it pending, so over-retrying is safe (the receiver
// dedups). The data frames still queued were never registered, nor was
// inFlight — the remainder of the writer's taken chain, older than anything
// still queued at death: both re-queue toward a fresh connection, or count as
// lost when the transport is draining or closed. Acks are dropped (the peer
// retransmits and is deduplicated).
func (t *StreamTransport) connBroken(cs *connState, inFlight []wireMessage, inFlightKeys []uint64) {
	leftover, leftRets := cs.markDead()
	t.evict(cs)
	if cs.addr != "" {
		t.peerFailure(cs.addr)
	}
	var seqs []uint64
	seqs = append(seqs, inFlightKeys...)
	for _, p := range leftRets {
		seqs = append(seqs, p.key)
	}
	requeue := append(inFlight, leftover...)
	if len(seqs) == 0 && len(requeue) == 0 {
		return
	}
	stopping := t.draining.Load()
	select {
	case <-t.closed:
		stopping = true
	default:
	}
	if stopping {
		// Registered work stays pending — RTO timers or Close's sweep govern
		// it — but unregistered frames would vanish silently: count them as
		// closed-at-drop.
		t.dropsClosed.Add(int64(len(requeue)))
		return
	}
	// Cap the immediate-retry burst: a connection that died with a deep queue
	// would otherwise re-inject every frame at once into a freshly dialed
	// (cold, possibly struggling) peer. Frames past the cap stay pending and
	// keep their ordinary RTO timers — trimmed, not lost.
	if t.queueLimit > 0 && len(seqs) > t.queueLimit {
		t.ovRetryTrim.Add(int64(len(seqs) - t.queueLimit))
		seqs = seqs[:t.queueLimit]
	}
	// The redial may block in the dialer; do it off the conn's loops. The
	// caller still holds a wg slot, so adding one here cannot race Close.
	addr := cs.addr
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for _, seq := range seqs {
			t.retryNow(seq)
		}
		for i := range requeue {
			t.writeQueued(addr, &requeue[i])
		}
	}()
}

// readLoop decodes the connection's frames: acks resolve pending sends, data
// messages are acked back on the same connection, deduplicated, and routed to
// the local shards or inboxes.
func (t *StreamTransport) readLoop(cs *connState) {
	defer t.wg.Done()
	defer t.connBroken(cs, nil, nil)
	defer cs.c.Close()
	t.readBinary(cs, bufio.NewReaderSize(cs.c, 32<<10))
}

func (t *StreamTransport) readBinary(cs *connState, br *bufio.Reader) {
	var dec wireDec
	for {
		acks, msgs, _, err := dec.readFrameMulti(br)
		if err != nil {
			if errors.Is(err, errMalformedFrame) {
				t.dropsDecode.Add(1) // corrupt frame; io errors are teardown
			}
			return
		}
		for _, seq := range acks {
			t.ack(seq)
		}
		if len(msgs) == 0 {
			continue // ack-only frame
		}
		// One ack resolves the whole frame: the sender keyed its pend entry
		// by the last sub-message's Seq. Ack first — even for a duplicate —
		// so retransmission stops (a lost ack only costs a deduplicated
		// retry); then scatter each sub-message to its owning shard.
		cs.enqueueAck(msgs[len(msgs)-1].Seq)
		for i := range msgs {
			if !t.deliverData(cs, &msgs[i]) {
				return
			}
		}
	}
}

// deliverData deduplicates, decodes, and routes one logical data message.
// The caller has already queued the frame's ack; cs is the connection it
// arrived on, whose read loop owns the decoder memo. It reports false when
// the transport closed mid-delivery.
func (t *StreamTransport) deliverData(cs *connState, w *wireMessage) bool {
	if !t.hosted[graph.NodeID(w.To)] {
		t.dropsMisroute.Add(1) // misrouted: not hosted here
		return true
	}
	key := dedupKey{edge: w.EdgeID, from: graph.NodeID(w.From), sentTick: w.SentTick, kind: MsgKind(w.Kind)}
	if t.dedup[key.shard()].seen(key, int(t.dedupWindow.Load())) {
		t.dupsSuppressed.Add(1)
		return true
	}
	payload, err := cs.decodePayload(w.PayloadType, w.Payload)
	if err != nil {
		t.dropsDecode.Add(1)
		return true
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
	// The wire already spent the edge's latency on the sender side, so the
	// sink delivery is immediate.
	if s := t.sink.Load(); s != nil && (*s)(msg, 0) {
		return true
	}
	// Non-blocking send first: a two-way select costs a full selectgo pass
	// per message, which local fabrics feel; the slow path only runs when the
	// inbox is full.
	ch := t.inbox(msg.To)
	select {
	case ch <- msg:
		return true
	default:
	}
	select {
	case ch <- msg:
		return true
	case <-t.closed:
		return false
	}
}

// publishOuts republishes the lock-free snapshot of the outbound pool.
// Callers hold connMu. A reader may observe a connection a beat after it was
// evicted; enqueue's dead check already covers that window (it exists even
// with a locked lookup — a connection can die between lookup and enqueue).
func (t *StreamTransport) publishOuts() {
	next := make(map[string]*connState, len(t.outs))
	for k, v := range t.outs {
		next[k] = v
	}
	t.outsSnap.Store(&next)
}

// pooled is the lock-free pooled-connection lookup: one atomic load and a
// read of an immutable snapshot. The send path pays this per message.
func (t *StreamTransport) pooled(addr string) (*connState, bool) {
	if m := t.outsSnap.Load(); m != nil {
		cs, ok := (*m)[addr]
		return cs, ok
	}
	return nil, false
}

// conn returns the pooled connection to addr, dialing with retries until
// dialTimeout so peers may come up after us.
func (t *StreamTransport) conn(addr string) (*connState, error) {
	if cs, ok := t.pooled(addr); ok {
		return cs, nil
	}
	t.connMu.Lock()
	if cs, ok := t.outs[addr]; ok {
		t.connMu.Unlock()
		return cs, nil
	}
	t.connMu.Unlock()

	if t.draining.Load() {
		// A draining transport flushes what it has; it does not open new
		// connections (a broken conn's frames are already counted pending —
		// they are abandoned with the rest when the deadline expires).
		return nil, ErrTransportClosed
	}
	start := time.Now()
	deadline := start.Add(t.dialTimeout)
	var c net.Conn
	var local bool
	var err error
	for {
		c, local, err = t.dialPeer(addr, time.Since(start))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("live: dial %s: %w", addr, err)
		}
		if t.draining.Load() {
			return nil, ErrTransportClosed // a drain does not wait out an unreachable peer
		}
		select {
		case <-t.closed:
			return nil, ErrTransportClosed
		case <-time.After(50 * time.Millisecond):
		}
	}

	cs := t.newConnState(c, addr, local)
	t.connMu.Lock()
	if prior, ok := t.outs[addr]; ok {
		// Lost a dial race; keep the first connection.
		t.connMu.Unlock()
		c.Close()
		return prior, nil
	}
	select {
	case <-t.closed:
		t.connMu.Unlock()
		c.Close()
		return nil, ErrTransportClosed
	default:
	}
	t.outs[addr] = cs
	t.publishOuts()
	// Outbound connections carry the peer's acks back to us. The wg.Add sits
	// inside the lock: Close checks closed, sweeps conns, and only then
	// waits, all behind the same mutex, so it cannot miss this registration.
	t.wg.Add(2)
	t.connMu.Unlock()
	go t.readLoop(cs)
	go t.writeLoop(cs)
	return cs, nil
}

// evict removes a broken connection from the pool (or the accepted list) so
// the next write redials.
func (t *StreamTransport) evict(cs *connState) {
	t.connMu.Lock()
	if cs.addr != "" {
		if t.outs[cs.addr] == cs {
			delete(t.outs, cs.addr)
			t.publishOuts()
		}
	} else {
		for i, other := range t.accepts {
			if other == cs {
				t.accepts = append(t.accepts[:i], t.accepts[i+1:]...)
				break
			}
		}
	}
	t.connMu.Unlock()
	cs.c.Close()
}
