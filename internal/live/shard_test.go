package live

import (
	"errors"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gossip/internal/graph"
	"gossip/internal/par"
	"gossip/internal/sim"
)

// TestShardPostWaitsForDrain: a shard's mailbox takes one sweep's worth of
// network arrivals (its hosted count); the next post waits until the shard
// drains it, and a shard that stops releases a waiting post, counting its
// message as abandoned.
func TestShardPostWaitsForDrain(t *testing.T) {
	const nodes = 2
	s := newShard(&Runtime{}, 0, 1, nodes)
	queued := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.q)
	}
	// post in the background; the returned channel closes once it returns.
	post := func(tick int) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.post(Message{Kind: MsgRequest, SentTick: tick}, 1)
		}()
		return done
	}
	blocked := func(done chan struct{}) bool {
		select {
		case <-done:
			return false
		case <-time.After(20 * time.Millisecond):
			return true
		}
	}
	for i := 0; i < nodes; i++ {
		s.post(Message{Kind: MsgRequest, SentTick: i}, 1)
	}
	waiter := post(nodes)
	if !blocked(waiter) || queued() != nodes {
		t.Fatalf("a post past %d arrivals did not wait: %d queued", nodes, queued())
	}
	s.drainMail()
	<-waiter
	if got := queued(); got != 1 || s.cal.armed != nodes {
		t.Fatalf("after the drain: %d queued, %d armed; want 1, %d", got, s.cal.armed, nodes)
	}

	s.post(Message{Kind: MsgRequest, SentTick: nodes + 1}, 1)
	waiter = post(nodes + 2)
	if !blocked(waiter) {
		t.Fatal("a post into a full mailbox did not wait")
	}
	s.stop()
	<-waiter
	if got, want := s.rt.abandoned.Load(), int64(nodes+nodes+1); got != want || queued() != nodes {
		t.Fatalf("after stop: abandoned = %d, %d queued; want %d, %d", got, queued(), want, nodes)
	}
	s.post(Message{Kind: MsgRequest}, 1)
	if got, want := s.rt.abandoned.Load(), int64(nodes+nodes+2); got != want {
		t.Fatalf("a post to a stopped shard: abandoned = %d, want %d", got, want)
	}
}

// TestSinkDelayHorizon: a delay past the calendar's horizon — the longest a
// wire frame may carry, for one — is counted as abandoned and never reaches
// the shard, so it cannot grow the ring; a delay at the horizon is posted.
func TestSinkDelayHorizon(t *testing.T) {
	rt := &Runtime{opts: Options{Tick: time.Millisecond}, loc: []nodeLoc{{0, 0}, {-1, -1}}}
	s := newShard(rt, 0, 1, 1)
	rt.shards = []*shard{s}
	msg := Message{Kind: MsgRequest, From: 1, To: 0} // a network arrival for node 0

	if !rt.sink(msg, maxWireDelayUS*time.Microsecond) {
		t.Fatal("sink refused a message for a hosted node")
	}
	if got := rt.abandoned.Load(); got != 1 || len(s.q) != 0 {
		t.Fatalf("delay past the horizon: abandoned = %d, posts = %d; want 1, 0", got, len(s.q))
	}
	rt.sink(msg, maxDelayTicks*time.Millisecond)
	if len(s.q) != 1 || s.q[0].delayTicks != maxDelayTicks || rt.abandoned.Load() != 1 {
		t.Fatalf("delay at the horizon: posts = %+v, abandoned = %d", s.q, rt.abandoned.Load())
	}
}

// TestRunGoroutinesBoundedByShards: hosted nodes are multiplexed onto
// O(shards) workers. A 10k-node run is sampled while it executes and the
// peak goroutine count above the test's baseline must stay within shard
// loops + watcher + runtime helpers; a goroutine-per-node
// runtime (the pre-shard design: 1 node = 1 goroutine + 1 ticker) overshoots
// the bound by two orders of magnitude.
func TestRunGoroutinesBoundedByShards(t *testing.T) {
	const n = 10_000
	g := graph.RingOfCliques(n/8, 8, 1)
	shards := par.MaxWorkers()
	base := runtime.NumGoroutine()

	tr := NewChanTransport(g.N())
	defer tr.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Push-pull cannot finish 10k nodes in 16 ticks, so the run always
		// spends its whole budget with every shard live.
		_, err := Run(g, ppProto{source: 0}, tr, Options{Seed: 1, Tick: 200 * time.Microsecond, MaxTicks: 16})
		if err != nil && !errors.Is(err, ErrMaxTicks) {
			t.Error(err)
		}
	}()
	sample := time.NewTicker(100 * time.Microsecond)
	defer sample.Stop()
	peak := 0
sampling:
	for {
		select {
		case <-done:
			break sampling
		case <-sample.C:
			peak = max(peak, runtime.NumGoroutine()-base)
		}
	}

	if peak < shards {
		t.Fatalf("peak goroutine count %d below the shard count %d: no sample landed inside the run", peak, shards)
	}
	if limit := 8*shards + 64; peak > limit {
		t.Errorf("mid-run goroutine count %d exceeds O(shards) bound %d (shards=%d, nodes=%d)", peak, limit, shards, n)
	}
}

// TestCalendarAgainstReference drives the shard calendar with random arms —
// delays from 0 to 3× the current horizon, so the ring keeps growing — and
// catch-up passes of 1…k ticks, and checks every firing against a reference
// event queue. Deliveries re-arm, mostly as a delay-1 response (the
// request/response pair of a multi-tick catch-up) and sometimes past the
// horizon (growth while a slot is out for delivery). Every message must fire
// exactly once, at its due tick, in the first pass whose target reaches it,
// FIFO within a tick.
func TestCalendarAgainstReference(t *testing.T) {
	type ref struct {
		due int64
		seq int
	}
	r := rand.New(rand.NewSource(1))
	var c calendar
	pending := map[int]ref{} // message id (EdgeID) -> reference
	seq := 0
	arm := func(delay int64) {
		seq++
		pending[seq] = ref{due: c.now + max(delay, 1), seq: seq}
		c.arm(delay, Message{EdgeID: seq})
	}
	// The ring's horizon, capped so that growth by up to 3× per arm stays
	// linear rather than exponential over the run.
	horizon := func() int64 { return min(max(int64(len(c.slots)), 4), 200) }
	fired := 0
	for round := 0; round < 3000; round++ {
		for n := r.Intn(8); n > 0; n-- {
			if r.Intn(20) == 0 {
				arm(r.Int63n(3*horizon() + 1))
			} else {
				arm(r.Int63n(horizon() + 1))
			}
		}
		target := c.now + 1 + r.Int63n(2*horizon())
		for {
			slot, ok := c.next(target)
			if !ok {
				break
			}
			for _, msg := range slot {
				// The expected head: the smallest (due, seq) still pending.
				head := ref{due: 1 << 62}
				for _, p := range pending {
					if p.due < head.due || p.due == head.due && p.seq < head.seq {
						head = p
					}
				}
				got, ok := pending[msg.EdgeID]
				if !ok {
					t.Fatalf("round %d: message %d fired twice or was never armed", round, msg.EdgeID)
				}
				if got != head || got.due != c.now || got.due > target {
					t.Fatalf("round %d: fired %+v at tick %d (target %d), want head %+v", round, got, c.now, target, head)
				}
				delete(pending, msg.EdgeID)
				fired++
				switch x := r.Intn(10); {
				case x < 5:
					arm(1) // the response to a request delivered mid catch-up
				case x == 5:
					arm(r.Int63n(3*horizon() + 1))
				}
			}
			c.recycle(slot)
		}
		if c.now != target {
			t.Fatalf("round %d: now = %d after a pass to %d", round, c.now, target)
		}
		for id, p := range pending {
			if p.due <= target {
				t.Fatalf("round %d: message %d due at %d survived the pass to %d", round, id, p.due, target)
			}
		}
		if c.armed != len(pending) {
			t.Fatalf("round %d: armed = %d, reference holds %d", round, c.armed, len(pending))
		}
	}
	if fired < 10_000 || len(c.slots) < 200 {
		t.Fatalf("weak run: %d fired, ring grew to %d slots", fired, len(c.slots))
	}
}

// TestShardHotspotStar is the degree hotspot that starved a capped mailbox
// (every leaf shard shedding into the center's) and exhausted memory with an
// uncapped one: a star on four shards completes with nothing shed, within a
// small multiple of the simulator's rounds on the same graph and seed.
func TestShardHotspotStar(t *testing.T) {
	// graph.Star, with each edge added from the leaf's side: the duplicate
	// check scans the first endpoint's edges, and a leaf has none yet.
	g := graph.New(20_000)
	for v := 1; v < g.N(); v++ {
		g.MustAddEdge(graph.NodeID(v), 0, 1)
	}
	nw := sim.NewNetwork(g, sim.Config{Seed: 1})
	for u := 0; u < g.N(); u++ {
		nw.SetHandler(graph.NodeID(u), &ppNode{informed: u == 0})
	}
	want, err := nw.Run(func(nw *sim.Network) bool {
		for u := 0; u < g.N(); u++ {
			if !nw.Handler(graph.NodeID(u)).(*ppNode).informed {
				return false
			}
		}
		return true
	})
	if err != nil || !want.Completed {
		t.Fatalf("simulator: completed=%v err=%v", want.Completed, err)
	}

	tr := NewChanTransport(g.N())
	defer tr.Close()
	res, err := Run(g, ppProto{source: 0}, tr, Options{Seed: 1, Tick: 200 * time.Microsecond, Shards: 4, MaxTicks: 500})
	if err != nil || !res.Completed {
		t.Fatalf("completed=%v err=%v after %d ticks", res.Completed, err, res.Metrics.Ticks)
	}
	if got := res.Faults.Overload.ShedQueue; got != 0 {
		t.Fatalf("ShedQueue = %d, want 0", got)
	}
	t.Logf("live: %d ticks, simulator: %d rounds", res.Metrics.Ticks, want.Metrics.Rounds)
	// Ticks are the most sweeps any node took, and the center's shard keeps
	// sweeping while it answers: on one P that alone reaches 15-40 ticks.
	// A starved hotspot takes thousands.
	if limit := 25 * want.Metrics.Rounds; res.Metrics.Ticks > limit {
		t.Fatalf("live run took %d ticks, simulator %d rounds (limit %d)", res.Metrics.Ticks, want.Metrics.Rounds, limit)
	}
}

// heldProto is push-pull whose node gate blocks in Tick until open is
// closed, so the shard hosting gate stops draining its mailbox. It records
// the highest round any node below gate has ticked, counts the requests
// those nodes answer when answered is set, and closes rejoined when it
// builds node crash's handler a second time (its recovery). With pad set,
// its requests carry pad bytes of padding instead of the rumor bit.
type heldProto struct {
	gate, crash graph.NodeID
	open        chan struct{}
	round       *atomic.Int64
	answered    *atomic.Int64
	built       *atomic.Int32
	rejoined    func()
	pad         int
}

type heldNode struct {
	ppNode
	p  heldProto
	id graph.NodeID
}

func (heldProto) Name() string         { return "held-test" }
func (heldProto) KnownLatencies() bool { return false }
func (p heldProto) NewHandler(u graph.NodeID) sim.Handler {
	if u == p.crash && p.built.Add(1) == 2 {
		p.rejoined()
	}
	return &heldNode{ppNode: ppNode{informed: u == 0}, p: p, id: u}
}
func (heldProto) LocalDone(_ graph.NodeID, h sim.Handler) bool { return h.(*heldNode).informed }

func (n *heldNode) Tick(ctx *sim.Context) {
	if n.id == n.p.gate {
		<-n.p.open
	}
	if n.id < n.p.gate {
		for r := int64(ctx.Round()); ; {
			old := n.p.round.Load()
			if r <= old || n.p.round.CompareAndSwap(old, r) {
				break
			}
		}
	}
	if d := ctx.Degree(); n.p.pad > 0 && d > 0 {
		_ = ctx.Initiate(ctx.Rand().Intn(d), padp(n.p.pad))
		return
	}
	n.ppNode.Tick(ctx)
}

// padp is a payload of that many bytes of padding.
type padp int

func (p padp) SizeBytes() int               { return int(p) }
func (padp) WireType() string               { return "live_test.pad" }
func (p padp) AppendWire(dst []byte) []byte { return append(dst, make([]byte, p)...) }

func init() {
	RegisterPayload(padp(0).WireType(), func(data []byte) (sim.Payload, error) {
		return padp(len(data)), nil
	})
}

func (n *heldNode) OnRequest(ctx *sim.Context, req sim.Request) sim.Payload {
	if n.id < n.p.gate && n.p.answered != nil {
		n.p.answered.Add(1)
	}
	return n.ppNode.OnRequest(ctx, req)
}

// memberSends counts the membership packets nodes below from send.
type memberSends struct {
	*ChanTransport
	below graph.NodeID
	n     atomic.Int64
}

func (t *memberSends) Send(msg Message, delay time.Duration) error {
	if msg.Kind == MsgMember && msg.From < t.below {
		t.n.Add(1)
	}
	return t.ChanTransport.Send(msg, delay)
}

// TestShardHeldBackKeepsClock: backpressure holds back only the start of new
// exchanges. Shard 0's nodes all gossip across to shard 1, which stops
// draining (one of its handlers blocks), so shard 0 is held back within a
// few sweeps. While held its nodes take no protocol round, yet their wall
// clocks run on: a crash plan fires and recovers, and the failure detector
// keeps sending. Once shard 1 drains again, the run completes.
func TestShardHeldBackKeepsClock(t *testing.T) {
	const half, crashAt, recoverAt = 64, 30, 40
	g := graph.New(2 * half) // complete bipartite: every edge crosses shards
	for u := 0; u < half; u++ {
		for v := half; v < 2*half; v++ {
			g.MustAddEdge(graph.NodeID(u), graph.NodeID(v), 1)
		}
	}
	rejoined := make(chan struct{})
	proto := heldProto{
		gate: half, crash: 1, open: make(chan struct{}),
		round: new(atomic.Int64), built: new(atomic.Int32),
		rejoined: sync.OnceFunc(func() { close(rejoined) }),
	}
	tr := &memberSends{ChanTransport: NewChanTransport(g.N()), below: half}
	defer tr.Close()
	type out struct {
		res Result
		err error
	}
	resCh := make(chan out, 1)
	go func() {
		res, err := Run(g, proto, tr, Options{
			Seed: 1, Tick: time.Millisecond, Shards: 2, MaxTicks: 2000,
			Crashes:    map[graph.NodeID]CrashPlan{1: {At: crashAt, RecoverAt: recoverAt}},
			Membership: &MembershipConfig{ProbeInterval: 1},
		})
		resCh <- out{res, err}
	}()
	release := sync.OnceFunc(func() { close(proto.open) })
	defer release() // never leave shard 1 blocked, even on failure

	select {
	case <-rejoined:
	case <-time.After(10 * time.Second):
		t.Fatal("node 1 never recovered: its wall clock stopped while held back")
	}
	r1, m1 := proto.round.Load(), tr.n.Load()
	time.Sleep(20 * time.Millisecond)
	r2, m2 := proto.round.Load(), tr.n.Load()
	if r1 >= crashAt || r2 != r1 {
		t.Fatalf("shard 0 took protocol rounds while held back: round %d at recovery (crash at wall %d), %d 20 ms later", r1, crashAt, r2)
	}
	if m2 <= m1 {
		t.Fatalf("failure detector went quiet while held back: %d member packets, %d 20 ms later", m1, m2)
	}
	t.Logf("held at round %d; member packets %d -> %d", r1, m1, m2)

	release()
	o := <-resCh
	if o.err != nil || !o.res.Completed {
		t.Fatalf("completed=%v err=%v after release", o.res.Completed, o.err)
	}
}

// tappedTransport is a stream transport whose sink counts every remote
// arrival the runtime's sink took, and hands it to onTake when that is set:
// the receive side of a two-runtime ledger. onAttach, when set, runs once
// a runtime's sink is installed and before its shards start.
type tappedTransport struct {
	*StreamTransport
	nodes    []graph.NodeID // hosted, in order
	took     atomic.Int64
	onTake   func(Message) // set before the first run
	onAttach func()        // set before each run
}

func (tr *tappedTransport) SetSink(sink DeliverySink) bool {
	if sink == nil {
		return tr.StreamTransport.SetSink(nil)
	}
	if tr.onAttach != nil {
		defer tr.onAttach()
	}
	return tr.StreamTransport.SetSink(func(m Message, d time.Duration) bool {
		if !sink(m, d) {
			return false
		}
		if !tr.Hosts(m.From) {
			tr.took.Add(1)
			if tr.onTake != nil {
				tr.onTake(m)
			}
		}
		return true
	})
}

// streamPair builds two tapped transports on fabric, each hosting one
// contiguous half of g, peered with each other.
func streamPair(t *testing.T, fabric string, g *graph.Graph) [2]*tappedTransport {
	t.Helper()
	var trs [2]*tappedTransport
	addrs := map[graph.NodeID]string{}
	for i := range trs {
		var hosted []graph.NodeID
		for u := i * g.N() / 2; u < (i+1)*g.N()/2; u++ {
			hosted = append(hosted, graph.NodeID(u))
		}
		tr, addr := newFabricTransport(t, fabric, hosted)
		t.Cleanup(func() { tr.Close() })
		trs[i] = &tappedTransport{StreamTransport: tr, nodes: hosted}
		for _, u := range hosted {
			addrs[u] = addr
		}
	}
	for _, tr := range trs {
		tr.SetPeers(addrs)
	}
	return trs
}

// runPair runs proto on both runtimes of a pair at once, with opts (Nodes
// filled in), and returns a wait function reporting both runs' results.
// Neither runtime starts before both have attached their sinks, so no
// arrival finds no runtime to take it.
func runPair(t *testing.T, g *graph.Graph, proto Protocol, trs [2]*tappedTransport, opts Options) func() [2]Result {
	t.Helper()
	var attached sync.WaitGroup
	attached.Add(len(trs))
	for _, tr := range trs {
		tr.onAttach = func() { attached.Done(); attached.Wait() }
	}
	var wg sync.WaitGroup
	var res [2]Result
	for i := range trs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := opts
			o.Nodes = trs[i].nodes
			var err error
			res[i], err = Run(g, proto, trs[i], o)
			if err != nil && !errors.Is(err, ErrMaxTicks) {
				t.Errorf("runtime %d: %v", i, err)
			}
		}(i)
	}
	return func() [2]Result { wg.Wait(); return res }
}

// unixPair runs proto on two runtimes over unix:// transports, each hosting
// one contiguous half of g, with opts (Nodes filled in). It returns the
// transports at once and a wait function reporting both runs' results.
func unixPair(t *testing.T, g *graph.Graph, proto Protocol, opts Options) ([2]*tappedTransport, func() [2]Result) {
	t.Helper()
	trs := streamPair(t, "unix", g)
	return trs, runPair(t, g, proto, trs, opts)
}

// TestShardSaturatedUnixNoDuplicates: two runtimes over unix:// with no
// faults, ticking faster than they can keep up, deliver every message once.
// The byte stream is the only retransmitter, so no message identity
// (edge, from, tick, kind, to) reaches a receiver's sink twice.
func TestShardSaturatedUnixNoDuplicates(t *testing.T) {
	g := graph.RingChords(4000, 4, 16, 1)
	trs := streamPair(t, "unix", g)
	type key struct {
		edge     int
		from, to graph.NodeID
		sentTick int
		kind     MsgKind
	}
	var mu sync.Mutex
	seen := map[key]bool{}
	repeats := 0
	for _, tr := range trs {
		tr.onTake = func(m Message) {
			k := key{m.EdgeID, m.From, m.To, m.SentTick, m.Kind}
			mu.Lock()
			if seen[k] {
				repeats++
			}
			seen[k] = true
			mu.Unlock()
		}
	}
	runPair(t, g, ppProto{source: -1}, trs, Options{
		Seed: 1, Tick: 100 * time.Microsecond, MaxTicks: 200, Shards: 2,
	})()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("no message crossed the pair")
	}
	if repeats != 0 {
		t.Errorf("%d of %d remote arrivals repeated a message with no faults injected", repeats, len(seen)+repeats)
	}
}

// TestStreamRerunLosesNothing: two consecutive push-pull runs over one pair
// of transports, on each fabric. The second run restarts SentTick at 0, so
// its messages repeat the first run's identities (edge, from, tick, kind),
// yet each is a new message: on each run every message a peer wrote reaches
// the receiver's sink or counts in the receiver's Dropped() as a decode or
// misroute drop (its breaks are losses of its own sends, which the peer
// never wrote).
func TestStreamRerunLosesNothing(t *testing.T) {
	g := graph.RingChords(4000, 4, 16, 1)
	opts := Options{Seed: 1, Tick: time.Millisecond, Linger: 100 * time.Millisecond}
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			trs := streamPair(t, fabric, g)
			type ledger struct{ wrote, took, recvDrops int64 }
			// settle waits until both sides have every written message acked
			// and returns each side's ledger.
			settle := func() (l [2]ledger) {
				t.Helper()
				if !pollUntil(10*time.Second, func() bool {
					return allAcked(trs[0].StreamTransport) && allAcked(trs[1].StreamTransport)
				}) {
					t.Fatal("writes still unacked after the run")
				}
				for i, tr := range trs {
					l[i] = ledger{tr.WireMsgsOut(), tr.took.Load(), tr.dropsDecode.Load() + tr.dropsMisroute.Load()}
				}
				return l
			}
			for run := 1; run <= 2; run++ {
				before := settle()
				res := runPair(t, g, ppProto{source: 0}, trs, opts)()
				for i, r := range res {
					if !r.Completed {
						t.Fatalf("run %d, runtime %d did not complete", run, i)
					}
				}
				// An ack counts a message decoded; its delivery follows at
				// once, so give the last arrivals a moment to reach the sink.
				var after [2]ledger
				balanced := func() bool {
					after = settle()
					for i := range trs {
						wrote := after[1-i].wrote - before[1-i].wrote
						took := after[i].took - before[i].took
						if took != wrote-(after[i].recvDrops-before[i].recvDrops) {
							return false
						}
					}
					return true
				}
				if pollUntil(time.Second, balanced) {
					continue
				}
				for i := range trs {
					t.Errorf("run %d, runtime %d: sink took %d of the %d messages its peer wrote, %d dropped on arrival",
						run, i, after[i].took-before[i].took, after[1-i].wrote-before[1-i].wrote,
						after[i].recvDrops-before[i].recvDrops)
				}
			}
		})
	}
}

// TestShardForgedFromDropped: a wire message claiming a sender the receiving
// transport hosts is forged — such a node never crosses the wire — and the
// runtime's sink would run it on that sender's shard state from a reader
// goroutine. The transport drops and counts it as misrouted; no node ever
// sees it. Nobody is informed in this run, so a delivered forgery (it
// carries an informed bit) would show as an informed node.
func TestShardForgedFromDropped(t *testing.T) {
	g := graph.Cycle(16, 1)
	interrupt := make(chan struct{})
	trs, wait := unixPair(t, g, ppProto{source: -1}, Options{
		Seed: 1, Tick: time.Millisecond, MaxTicks: 1 << 20, Interrupt: interrupt,
	})
	b := trs[1]
	u, v := graph.NodeID(8), graph.NodeID(9) // both hosted by b
	edge := -1
	for _, he := range g.Neighbors(u) {
		if he.To == v {
			edge = he.ID
		}
	}
	forged := wireMessage{Kind: uint8(MsgRequest), From: int(u), To: int(v), EdgeID: edge, Latency: 1, SentTick: 1,
		Payload: bitp{informed: true}}
	if !pollUntil(5*time.Second, func() bool { return b.sink.Load() != nil }) {
		t.Fatal("runtime never attached its sink")
	}
	c, err := net.Dial("unix", strings.TrimPrefix(b.Addr().String(), unixScheme))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(frameOf(new(wireEnc), nil, forged, 0)); err != nil {
		t.Fatal(err)
	}
	if !pollUntil(5*time.Second, func() bool { return b.dropsMisroute.Load() == 1 }) {
		t.Fatalf("forged frame not counted: dropsMisroute = %d", b.dropsMisroute.Load())
	}
	time.Sleep(10 * time.Millisecond) // a delivered forgery would spread meanwhile
	close(interrupt)
	for i, r := range wait() {
		if n := countTrue(r.Done); n != 0 {
			t.Fatalf("runtime %d: %d nodes informed by a forged message", i, n)
		}
	}
}

// TestShardCongestionHoldsSender: a receiver that stops draining holds its
// sender back through the wire alone. Over unix://, the shard of runtime 1
// hosting the gate node blocks in that node's Tick, so its mailbox fills and
// the reader posting to it stops; the socket fills, runtime 0's writer
// blocks behind it, its queue passes one super-frame, and runtime 0 is held:
// its nodes take no protocol round, yet they still answer the requests
// runtime 1's other shard sends, and nothing is lost. Once the gate opens,
// both runtimes complete.
func TestShardCongestionHoldsSender(t *testing.T) {
	const half, askers = 128, 4
	// Runtime 0 hosts [0, half); runtime 1 hosts [half, 2*half) on two
	// shards, the gate's first. Runtime 0's nodes reach the gate's shard,
	// node 0 (the only one informed) only that shard, so no node learns the
	// rumor while the gate is held and neither runtime completes early. The
	// other shard asks runtime 0 through its first askers nodes alone, which
	// the rest of that shard asks in turn: runtime 0 has requests to answer
	// while held, few enough that the answers queued meanwhile drain fast.
	g := graph.New(2 * half)
	other := graph.NodeID(half + half/2)
	for u := graph.NodeID(0); u < half; u++ {
		for v := graph.NodeID(half); v < other; v++ {
			g.MustAddEdge(u, v, 1)
		}
		for v := other; v < other+askers && u > 0; v++ {
			g.MustAddEdge(u, v, 1)
		}
	}
	for v := other + askers; v < 2*half; v++ {
		g.MustAddEdge(v, other+v%askers, 1)
	}
	proto := heldProto{gate: half, crash: -1, open: make(chan struct{}),
		round: new(atomic.Int64), answered: new(atomic.Int64)}
	trs := streamPair(t, "unix", g)
	// Each runtime lingers while the other drains what queued up behind the
	// gate.
	linger := time.Second
	if raceEnabled {
		linger = 3 * time.Second
	}
	wait := runPair(t, g, proto, trs, Options{
		Seed: 1, Tick: time.Millisecond, Shards: 2, MaxTicks: 1 << 20, Linger: linger,
	})
	release := sync.OnceFunc(func() { close(proto.open) })
	defer release() // never leave the gate's shard blocked, even on failure

	// A burst can mark runtime 0 congested for a moment before the socket
	// fills, so the hold counts only once it lasts: congested at both ends
	// of a window in which no round was taken.
	held := false
	for deadline := time.Now().Add(20 * time.Second); !held && time.Now().Before(deadline); {
		if !trs[0].congested() {
			time.Sleep(time.Millisecond)
			continue
		}
		time.Sleep(10 * time.Millisecond) // let each shard finish the sweep it was in
		r1, a1 := proto.round.Load(), proto.answered.Load()
		time.Sleep(50 * time.Millisecond)
		r2, a2 := proto.round.Load(), proto.answered.Load()
		if !trs[0].congested() || r2 != r1 {
			continue
		}
		held = true
		if a2 <= a1 {
			t.Fatalf("runtime 0 stopped answering while held: %d requests answered, %d 50 ms later", a1, a2)
		}
		t.Logf("held at round %d; requests answered %d -> %d", r1, a1, a2)
	}
	if !held {
		t.Fatal("runtime 0 was never held behind the stalled receiver")
	}
	for i, tr := range trs {
		if shed, dropped := tr.Overload().Shed(), tr.Dropped(); shed != 0 || dropped != 0 {
			t.Errorf("runtime %d while held: shed %d, Dropped() = %d; want nothing lost", i, shed, dropped)
		}
	}

	release()
	for i, r := range wait() {
		if !r.Completed {
			t.Errorf("runtime %d did not complete after the release (%d ticks)", i, r.Metrics.Ticks)
		}
	}
}

// TestShardBudgetEndsHeldRun: a run's budget counts sweeps, which go on
// while backpressure holds it, so a runtime held forever still ends. Over
// unix://, runtime 1's gate shard blocks in Tick and never drains again;
// runtime 0's nodes all send it padded requests, so runtime 0 is held
// within a few dozen rounds and takes none after. It still returns
// ErrMaxTicks within MaxTicks·Tick plus a grace window, having taken fewer
// rounds than its budget: a budget of rounds would have held it until the
// gate opened.
func TestShardBudgetEndsHeldRun(t *testing.T) {
	const half, budget, tick = 64, 400, time.Millisecond
	g := graph.New(2 * half)
	for u := graph.NodeID(0); u < half; u++ {
		for v := graph.NodeID(half); v < half+half/2; v++ {
			g.MustAddEdge(u, v, 1)
		}
	}
	proto := heldProto{gate: half, crash: -1, open: make(chan struct{}), round: new(atomic.Int64), pad: 4 << 10}
	release := sync.OnceFunc(func() { close(proto.open) })
	defer release() // never leave the gate's shard blocked, even on failure
	trs := streamPair(t, "unix", g)
	var attached sync.WaitGroup
	attached.Add(len(trs))
	type out struct {
		res  Result
		err  error
		took time.Duration
	}
	outs := [2]chan out{make(chan out, 1), make(chan out, 1)}
	for i, tr := range trs {
		tr.onAttach = func() { attached.Done(); attached.Wait() }
		go func() {
			start := time.Now()
			res, err := Run(g, proto, tr, Options{Seed: 1, Tick: tick, Shards: 2, MaxTicks: budget, Nodes: tr.nodes})
			outs[i] <- out{res, err, time.Since(start)}
		}()
	}
	grace := time.Second
	if raceEnabled {
		grace = 3 * time.Second
	}
	var o out
	select {
	case o = <-outs[0]:
	case <-time.After(budget*tick + grace):
		t.Fatalf("held runtime still running %v past its budget of %d ticks of %v", grace, budget, tick)
	}
	if !errors.Is(o.err, ErrMaxTicks) {
		t.Fatalf("held runtime returned %v, want ErrMaxTicks", o.err)
	}
	if o.res.Metrics.Ticks >= budget {
		t.Fatalf("runtime 0 took %d rounds of its %d-tick budget: never held, the check proves nothing", o.res.Metrics.Ticks, budget)
	}
	t.Logf("held at round %d; returned after %v", o.res.Metrics.Ticks, o.took)
	release()
	if o := <-outs[1]; o.err != nil && !errors.Is(o.err, ErrMaxTicks) {
		t.Fatalf("runtime 1: %v", o.err)
	}
}

// TestShardHotspotStarAcrossRuntimes: the degree hotspot split across two
// runtimes. A 40k-node star's center is in runtime 0 and its leaves in both,
// so runtime 1's 20k leaves all pull from one remote shard far faster than
// it drains. The center's full mailbox stops runtime 0's reader, the wire
// holds runtime 1's writer, and its congested queue holds runtime 1's
// initiation: on both fabrics both runtimes complete with nothing shed and
// nothing lost.
func TestShardHotspotStarAcrossRuntimes(t *testing.T) {
	g := graph.New(40_000) // star, each edge added from the leaf's side
	for v := 1; v < g.N(); v++ {
		g.MustAddEdge(graph.NodeID(v), 0, 1)
	}
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			trs := streamPair(t, fabric, g)
			// Runtime 0 completes first and lingers while runtime 1's leaves
			// still pull from the center and their last requests arrive:
			// 0.2-0.5 s after runtime 0 completes, or 2-3 s under the race
			// detector (2 cores).
			linger := time.Second
			if raceEnabled {
				linger = 6 * time.Second
			}
			res := runPair(t, g, ppProto{source: 0}, trs, Options{
				Seed: 1, Tick: 200 * time.Microsecond, Shards: 2, Linger: linger,
			})()
			for i, r := range res {
				if !r.Completed {
					t.Errorf("runtime %d did not complete (%d ticks)", i, r.Metrics.Ticks)
				}
				if shed, dropped := r.Faults.Overload.ShedQueue, trs[i].Dropped(); shed != 0 || dropped != 0 {
					t.Errorf("runtime %d: ShedQueue = %d, Dropped() = %d; want 0", i, shed, dropped)
				}
			}
		})
	}
}

// countProto is push-pull with no goal: every node initiates every tick and
// counts the requests and responses delivered to it, so a run's messages can
// be balanced against its ledger. The first node to reach tick stopAt calls
// stop.
type countProto struct {
	stopAt int
	stop   func()
}

type countNode struct {
	ppNode
	p                   countProto
	requests, responses int
}

func (countProto) Name() string                             { return "count-test" }
func (countProto) KnownLatencies() bool                     { return false }
func (p countProto) NewHandler(graph.NodeID) sim.Handler    { return &countNode{p: p} }
func (countProto) LocalDone(graph.NodeID, sim.Handler) bool { return false }

func (n *countNode) Tick(ctx *sim.Context) {
	if ctx.Round() >= n.p.stopAt {
		n.p.stop()
	}
	n.ppNode.Tick(ctx)
}

func (n *countNode) OnRequest(ctx *sim.Context, req sim.Request) sim.Payload {
	n.requests++
	return n.ppNode.OnRequest(ctx, req)
}

func (n *countNode) OnResponse(ctx *sim.Context, resp sim.Response) {
	n.responses++
	n.ppNode.OnResponse(ctx, resp)
}

// TestShardStopAccountsEveryMessage: shards of an interrupted run stop at
// different times, and the last tick of a shard that was slow to stop still
// answers requests — posts that cross to shards already stopped. Those, and
// whatever a stopping shard still holds armed or queued, are counted as
// drops; none is parked where nothing reads it. So every message sent is
// delivered or counted.
func TestShardStopAccountsEveryMessage(t *testing.T) {
	g := graph.RingChords(4000, 4, 16, 1)
	var counted int64
	for round := 0; round < 5; round++ {
		tr := NewChanTransport(g.N())
		interrupt := make(chan struct{})
		proto := countProto{stopAt: 20, stop: sync.OnceFunc(func() { close(interrupt) })}
		res, err := Run(g, proto, tr, Options{
			Seed: uint64(round), Tick: 2 * time.Millisecond, Shards: 4, DrainTicks: 1, Interrupt: interrupt,
		})
		tr.Close()
		if err != nil || !res.Interrupted {
			t.Fatalf("interrupted=%v err=%v", res.Interrupted, err)
		}
		delivered := 0
		for _, h := range res.Handlers {
			n := h.(*countNode)
			delivered += n.requests + n.responses
		}
		sent := res.Metrics.Messages()
		dropped := res.Faults.Dropped()
		if int64(sent) != int64(delivered)+dropped {
			t.Fatalf("round %d: sent %d, delivered %d, counted %d: %d unaccounted",
				round, sent, delivered, dropped, int64(sent)-int64(delivered)-dropped)
		}
		counted += dropped
	}
	if counted == 0 {
		t.Fatal("nothing in flight at any stop; the check proves nothing")
	}
}
