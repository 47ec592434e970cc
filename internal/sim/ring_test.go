package sim

import (
	"fmt"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/par"
)

// TestRingGrowsForRaisedLatency raises an edge latency far beyond the
// calendar capacity chosen at construction: schedule must grow the ring and
// remap live events to their absolute rounds, and the round-trip timing must
// stay exact.
func TestRingGrowsForRaisedLatency(t *testing.T) {
	g := graph.New(2)
	id := g.MustAddEdge(0, 1, 1)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 500})
	capBefore := len(nw.shards[0].ring)
	// Raise the latency after the network sized its ring for maxLatency 1.
	lat := 8 * capBefore
	if err := g.SetLatency(id, lat); err != nil {
		t.Fatal(err)
	}
	a := &echoHandler{initiateAt: 1, edgeIdx: 0, payload: "grow"}
	b := &echoHandler{}
	nw.SetHandler(0, a)
	nw.SetHandler(1, b)
	if _, err := nw.Run(func(nw *Network) bool { return len(a.gotResponses) > 0 }); err != nil {
		t.Fatal(err)
	}
	if len(nw.shards[0].ring) <= capBefore {
		t.Errorf("ring capacity %d did not grow past %d for latency %d", len(nw.shards[0].ring), capBefore, lat)
	}
	if want := 1 + (lat+1)/2; b.reqRound[0] != want {
		t.Errorf("request delivered at round %d, want %d", b.reqRound[0], want)
	}
	if want := 1 + lat; a.respRound[0] != want {
		t.Errorf("response delivered at round %d, want %d", a.respRound[0], want)
	}
}

// TestRingGrowthMidRun keeps a long-latency exchange in flight while a
// second initiation forces the ring to grow: the remap must preserve the
// absolute delivery round of the already-scheduled event.
func TestRingGrowthMidRun(t *testing.T) {
	g := graph.New(3)
	slow := g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(0, 2, 1)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 500})
	capBefore := len(nw.shards[0].ring)
	lat := 4 * capBefore // scheduled once the ring has already seen traffic
	b := &echoHandler{}
	c := &echoHandler{}
	var aResp []Response
	var aRespRound []int
	a := &funcHandler{tick: func(ctx *Context) {
		switch ctx.Round() {
		case 1:
			// Seed the calendar with a short exchange so growth has a live
			// event to remap.
			if err := ctx.Initiate(1, "short"); err != nil {
				panic(err)
			}
			// Raise the slow edge under the engine's feet; round 2's
			// initiation outgrows the ring while "short" is in flight.
			if err := g.SetLatency(slow, lat); err != nil {
				panic(err)
			}
		case 2:
			if err := ctx.Initiate(0, "long"); err != nil {
				panic(err)
			}
		}
	}}
	aWrap := &respRecorder{inner: a, resp: &aResp, rounds: &aRespRound}
	nw.SetHandler(0, aWrap)
	nw.SetHandler(1, b)
	nw.SetHandler(2, c)
	if _, err := nw.Run(func(nw *Network) bool { return len(aResp) == 2 }); err != nil {
		t.Fatal(err)
	}
	if len(nw.shards[0].ring) <= capBefore {
		t.Errorf("ring capacity %d did not grow past %d", len(nw.shards[0].ring), capBefore)
	}
	// The short exchange (latency 1, initiated round 1) must still land at
	// round 2 after the remap; the long one at 2+lat.
	if aRespRound[0] != 2 {
		t.Errorf("short response delivered at round %d, want 2", aRespRound[0])
	}
	if want := 2 + lat; aRespRound[1] != want {
		t.Errorf("long response delivered at round %d, want %d", aRespRound[1], want)
	}
}

// TestRingGrowthDuringDelivery grows the ring from inside the delivery scan:
// a response handler initiates over an edge whose latency outgrew the ring,
// which moves the slot being scanned. The event queued behind that response
// in the same slot must still be delivered in its round, and every
// exchange must keep its exact timing.
func TestRingGrowthDuringDelivery(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(1, 0, 2)
	slow := g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(2, 0, 1)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 500})
	capBefore := len(nw.shards[0].ring)
	lat := 8 * capBefore
	if err := g.SetLatency(slow, lat); err != nil {
		t.Fatal(err)
	}
	// Node 1's round-r request reaches node 0 in round r+1, and its
	// response lands in round r+2's slot ahead of node 2's round-(r+1)
	// request. Past the first lap of the ring, growth moves that slot to a
	// new index.
	r := capBefore + 1
	grower := &initiateOnResponse{echoHandler: echoHandler{initiateAt: r, edgeIdx: 0, payload: "first"}, idx: 1}
	late := &echoHandler{initiateAt: r + 1, edgeIdx: 0, payload: "late"}
	hub, far := &echoHandler{}, &echoHandler{}
	nw.SetHandler(0, hub)
	nw.SetHandler(1, grower)
	nw.SetHandler(2, late)
	nw.SetHandler(3, far)
	if _, err := nw.Run(func(nw *Network) bool { return len(grower.respRound) == 2 }); err != nil {
		t.Fatal(err)
	}
	if len(nw.shards[0].ring) <= capBefore {
		t.Errorf("ring capacity %d did not grow past %d", len(nw.shards[0].ring), capBefore)
	}
	if want := fmt.Sprint([]int{r + 1, r + 2}); fmt.Sprint(hub.reqRound) != want {
		t.Errorf("hub requests at rounds %v, want %s", hub.reqRound, want)
	}
	if want := fmt.Sprint([]int{r + 2}); fmt.Sprint(late.respRound) != want {
		t.Errorf("node 2's response at rounds %v, want %s", late.respRound, want)
	}
	if want := fmt.Sprint([]int{r + 2, r + 2 + lat}); fmt.Sprint(grower.respRound) != want {
		t.Errorf("node 1's responses at rounds %v, want %s", grower.respRound, want)
	}
	if want := fmt.Sprint([]int{r + 2 + (lat+1)/2}); fmt.Sprint(far.reqRound) != want {
		t.Errorf("slow request delivered at rounds %v, want %s", far.reqRound, want)
	}
}

// initiateOnResponse is an echoHandler that initiates once more, over edge
// idx, from inside its first OnResponse.
type initiateOnResponse struct {
	echoHandler
	idx  int
	sent bool
}

func (h *initiateOnResponse) OnResponse(ctx *Context, resp Response) {
	h.echoHandler.OnResponse(ctx, resp)
	if !h.sent {
		h.sent = true
		if err := ctx.Initiate(h.idx, "grow"); err != nil {
			panic(err)
		}
	}
}

// respRecorder wraps a handler to capture responses with their rounds.
type respRecorder struct {
	inner  Handler
	resp   *[]Response
	rounds *[]int
}

func (h *respRecorder) Start(ctx *Context) { h.inner.Start(ctx) }
func (h *respRecorder) Tick(ctx *Context)  { h.inner.Tick(ctx) }
func (h *respRecorder) OnRequest(ctx *Context, req Request) Payload {
	return h.inner.OnRequest(ctx, req)
}
func (h *respRecorder) OnResponse(ctx *Context, resp Response) {
	*h.resp = append(*h.resp, resp)
	*h.rounds = append(*h.rounds, ctx.Round())
	h.inner.OnResponse(ctx, resp)
}
func (h *respRecorder) Done() bool { return h.inner.Done() }

// TestCongestionRequeueOnWrappedSlot drives a hub with MaxResponsesPerRound=1
// on a ring small enough that the +1 requeue lands on a wrapped slot: every
// leaf's exchange must still complete, in FIFO order, one per round.
func TestCongestionRequeueOnWrappedSlot(t *testing.T) {
	leaves := 6
	g := graph.Star(leaves+1, 1) // node 0 = hub; maxLatency 1 → minimal ring
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 100, MaxResponsesPerRound: 1})
	if len(nw.shards[0].ring) != 4 {
		t.Fatalf("ring capacity %d, want the minimum 4 (the test needs wrap-around)", len(nw.shards[0].ring))
	}
	hub := &echoHandler{}
	nw.SetHandler(0, hub)
	leafRounds := make([][]int, leaves)
	leafResps := make([][]Response, leaves)
	for v := 1; v <= leaves; v++ {
		v := v
		leaf := &funcHandler{tick: func(ctx *Context) {
			if ctx.Round() == 1 {
				if err := ctx.Initiate(0, fmt.Sprintf("leaf-%d", v)); err != nil {
					panic(err)
				}
			}
		}}
		nw.SetHandler(v, &respRecorder{inner: leaf, resp: &leafResps[v-1], rounds: &leafRounds[v-1]})
	}
	res, err := nw.Run(func(nw *Network) bool { return nw.Metrics().Responses == leaves })
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= leaves; v++ {
		if len(leafRounds[v-1]) != 1 {
			t.Errorf("leaf %d completed %d exchanges, want 1", v, len(leafRounds[v-1]))
		}
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if nw.Metrics().Responses != leaves {
		t.Errorf("hub answered %d requests, want %d", nw.Metrics().Responses, leaves)
	}
	if got := len(hub.gotRequests); got != leaves {
		t.Errorf("hub saw %d requests, want %d", got, leaves)
	}
	// All requests arrive at round 2; the bound serializes them one per
	// round, so hub service rounds must be exactly 2, 3, ..., leaves+1.
	for i, r := range hub.reqRound {
		if want := 2 + i; r != want {
			t.Errorf("hub served request %d at round %d, want %d", i, r, want)
		}
	}
}

// TestZeroDelayResponseFlushOrder pins the intra-round event order the old
// map-based engine produced: with latency 1 (response delay 0) the response
// is appended to the slot being scanned and must be delivered in the same
// round, after the request, in initiation order.
func TestZeroDelayResponseFlushOrder(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(1, 2, 1)
	var rec Recorder
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 10, Trace: rec.Tracer()})
	for v := 0; v < 3; v++ {
		v := v
		nw.SetHandler(v, &funcHandler{tick: func(ctx *Context) {
			if ctx.Round() == 1 {
				if err := ctx.Initiate(0, v); err != nil {
					panic(err)
				}
			}
		}})
	}
	if _, err := nw.Run(func(nw *Network) bool { return nw.Metrics().Responses == 3 }); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range rec.Events {
		got = append(got, fmt.Sprintf("r%d %s %d->%d", ev.Round, ev.Kind, ev.From, ev.To))
	}
	// Round 1: the three initiations in node order. Round 2: the three
	// requests in initiation order; each serve appends its zero-delay
	// response to the end of the slot being scanned, so the responses flush
	// after the last request, again in initiation order.
	want := []string{
		"r1 initiate 0->1",
		"r1 initiate 1->0",
		"r1 initiate 2->0",
		"r2 request 0->1",
		"r2 request 1->0",
		"r2 request 2->0",
		"r2 response 1->0",
		"r2 response 0->1",
		"r2 response 0->2",
	}
	if len(got) != len(want) {
		t.Fatalf("trace length %d, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("trace[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestEventPoolReuse checks that delivered events actually return to the free
// list and are reused: after a run far longer than the pool block size, the
// pool must have allocated only a handful of blocks.
func TestEventPoolReuse(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 1000})
	every := &funcHandler{tick: func(ctx *Context) {
		if err := ctx.Initiate(0, "x"); err != nil {
			panic(err)
		}
	}}
	nw.SetHandler(0, every)
	nw.SetHandler(1, &echoHandler{})
	if _, err := nw.Run(func(nw *Network) bool { return nw.Round() >= 500 }); err != nil {
		t.Fatal(err)
	}
	// 500 rounds × 2 events each would be 1000 allocations without pooling;
	// with reuse the pool stays within a couple of blocks.
	if free := len(nw.shards[0].free); free > 2*eventBlockSize {
		t.Errorf("free list holds %d events (> %d): pool is leaking instead of reusing", free, 2*eventBlockSize)
	}
}

// TestSteadyStateExchangeAllocatesNothing: once the event pools, the ring
// slots and (sharded) the outboxes have reached their working size, an
// exchange (Initiate, request delivery, response delivery) allocates
// nothing, and neither does a sharded round's handoff between workers.
// Every node initiates every round over latency-3 edges, so each round
// looks alike and the warm-up reaches the peak. The pool of *event is
// deliberate: storing events by value in the ring slots was as fast but
// kept every slot at its peak capacity, raising the benchmark's peak RSS
// from about 185 to over 300 MiB.
func TestSteadyStateExchangeAllocatesNothing(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(2))
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		shards int
	}{
		{"one shard", graph.Clique(64, 3), 1},
		{"sharded", graph.Torus(32, 64, 3), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			nw := NewNetwork(g, Config{Seed: 1})
			defer nw.Close()
			for u := 0; u < g.N(); u++ {
				nw.SetHandler(u, &benchHandler{})
			}
			nw.start()
			if len(nw.shards) != tc.shards {
				t.Fatalf("%d shards, want %d", len(nw.shards), tc.shards)
			}
			// One round as Run executes it, without the predicate and
			// stall checks.
			round := func() {
				nw.round++
				nw.step()
			}
			for i := 0; i < 200; i++ {
				round()
			}
			before := nw.Metrics().Requests
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Errorf("steady-state round allocates %.1f times, want 0", allocs)
			}
			if got := nw.Metrics().Requests - before; got != 101*g.N() {
				t.Errorf("%d exchanges started in the measured rounds, want %d", got, 101*g.N())
			}
		})
	}
}
