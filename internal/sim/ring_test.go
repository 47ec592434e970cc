package sim

import (
	"fmt"
	"sort"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/par"
)

// TestInitiateDuringDelivery initiates from inside the delivery scan: a
// response handler starts an exchange over the slow edge while node 2's
// request waits behind that response in the same slot. The later event must
// still be delivered in its round, every exchange must keep its exact
// timing, and the ring keeps its length.
func TestInitiateDuringDelivery(t *testing.T) {
	const lat = 32
	gb := graph.New(4)
	gb.MustAddEdge(1, 0, 2)
	gb.MustAddEdge(1, 3, lat)
	gb.MustAddEdge(2, 0, 1)
	g := gb.Build()
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 500})
	size := len(nw.shards[0].ring)
	// Node 1's round-r request reaches node 0 in round r+1, and its
	// response lands in round r+2's slot ahead of node 2's round-(r+1)
	// request. r is past the first lap of the ring.
	r := size + 1
	caller := &initiateOnResponse{echoHandler: echoHandler{initiateAt: r, edgeIdx: 0, payload: "first"}, idx: 1}
	late := &echoHandler{initiateAt: r + 1, edgeIdx: 0, payload: "late"}
	hub, far := &echoHandler{}, &echoHandler{}
	nw.SetHandler(0, hub)
	nw.SetHandler(1, caller)
	nw.SetHandler(2, late)
	nw.SetHandler(3, far)
	if _, err := nw.Run(func(nw *Network) bool { return len(caller.respRound) == 2 }); err != nil {
		t.Fatal(err)
	}
	if len(nw.shards[0].ring) != size {
		t.Errorf("ring length %d, want %d", len(nw.shards[0].ring), size)
	}
	if want := fmt.Sprint([]int{r + 1, r + 2}); fmt.Sprint(hub.reqRound) != want {
		t.Errorf("hub requests at rounds %v, want %s", hub.reqRound, want)
	}
	if want := fmt.Sprint([]int{r + 2}); fmt.Sprint(late.respRound) != want {
		t.Errorf("node 2's response at rounds %v, want %s", late.respRound, want)
	}
	if want := fmt.Sprint([]int{r + 2, r + 2 + lat}); fmt.Sprint(caller.respRound) != want {
		t.Errorf("node 1's responses at rounds %v, want %s", caller.respRound, want)
	}
	if want := fmt.Sprint([]int{r + 2 + (lat+1)/2}); fmt.Sprint(far.reqRound) != want {
		t.Errorf("slow request delivered at rounds %v, want %s", far.reqRound, want)
	}
}

// TestMaxLatencyExchangeFixedRing runs exchanges over ℓmax edges at the two
// longest reaches of the calendar: under FullRTTDelivery a request is due
// ℓmax rounds ahead, also when it is initiated from inside the delivery
// scan, and under MaxResponsesPerRound a hub requeues what it cannot serve
// one round ahead, past the ring's first lap. Every delivery must land in
// its exact round, and the ring's length must never change.
func TestMaxLatencyExchangeFixedRing(t *testing.T) {
	const lat = 9 // ring of lat+2 = 11 slots
	t.Run("FullRTTDelivery", func(t *testing.T) {
		gb := graph.New(3)
		gb.MustAddEdge(0, 1, lat)
		gb.MustAddEdge(0, 2, 2)
		gb.MustAddEdge(2, 1, lat)
		g := gb.Build()
		nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 200, FullRTTDelivery: true})
		size := len(nw.shards[0].ring)
		// Node 0 initiates over the slow edge every round, so every slot
		// of the ring holds a live request. Node 2's round-1 exchange with
		// node 0 completes in round 3's delivery, where node 2 initiates
		// over its slow edge: that request must not land in the slot
		// being scanned.
		const exchanges = 3 * lat
		var resp []Response
		var respRound []int
		every := &funcHandler{tick: func(ctx *Context) {
			if ctx.Round() <= exchanges {
				if err := ctx.Initiate(0, ctx.Round()); err != nil {
					panic(err)
				}
			}
		}}
		far := &echoHandler{}
		caller := &initiateOnResponse{echoHandler: echoHandler{initiateAt: 1, edgeIdx: 0, payload: "near"}, idx: 1}
		nw.SetHandler(0, &respRecorder{inner: every, resp: &resp, rounds: &respRound})
		nw.SetHandler(1, far)
		nw.SetHandler(2, caller)
		if _, err := nw.Run(func(nw *Network) bool {
			if len(nw.shards[0].ring) != size {
				t.Fatalf("round %d: ring length %d, want %d", nw.Round(), len(nw.shards[0].ring), size)
			}
			return len(resp) == exchanges && len(caller.respRound) == 2
		}); err != nil {
			t.Fatal(err)
		}
		// The request of round r arrives at r+ℓ and its response, with no
		// delay left, in the same round.
		var from0, from2 []int
		for k, req := range far.gotRequests {
			if req.From == 0 {
				from0 = append(from0, far.reqRound[k])
			} else {
				from2 = append(from2, far.reqRound[k])
			}
		}
		if len(from0) != exchanges {
			t.Fatalf("node 1 got %d requests from node 0, want %d", len(from0), exchanges)
		}
		for k := 0; k < exchanges; k++ {
			if want := 1 + k + lat; from0[k] != want || respRound[k] != want {
				t.Fatalf("exchange %d: request at round %d, response at %d, want both %d", k, from0[k], respRound[k], want)
			}
		}
		if want := fmt.Sprint([]int{3 + lat}); fmt.Sprint(from2) != want {
			t.Errorf("node 2's slow request at rounds %v, want %s", from2, want)
		}
		if want := fmt.Sprint([]int{3, 3 + lat}); fmt.Sprint(caller.respRound) != want {
			t.Errorf("node 2's responses at rounds %v, want %s", caller.respRound, want)
		}
	})
	t.Run("MaxResponsesPerRound", func(t *testing.T) {
		leaves := 3 * (lat + 2)
		g := graph.Star(leaves+1, lat) // node 0 = hub
		nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 200, MaxResponsesPerRound: 1})
		size := len(nw.shards[0].ring)
		hub := &echoHandler{}
		nw.SetHandler(0, hub)
		var leafRounds []int
		for v := 1; v <= leaves; v++ {
			nw.SetHandler(v, &echoHandler{initiateAt: 1, edgeIdx: 0, payload: v})
		}
		if _, err := nw.Run(func(nw *Network) bool {
			if len(nw.shards[0].ring) != size {
				t.Fatalf("round %d: ring length %d, want %d", nw.Round(), len(nw.shards[0].ring), size)
			}
			return nw.Metrics().Responses == leaves && nw.inFlight() == 0
		}); err != nil {
			t.Fatal(err)
		}
		for v := 1; v <= leaves; v++ {
			leafRounds = append(leafRounds, nw.nodes[v].handler.(*echoHandler).respRound...)
		}
		sort.Ints(leafRounds)
		// Every request arrives at 1+⌈ℓ/2⌉; the hub serves one a round,
		// and each response takes ⌊ℓ/2⌋ more.
		if len(hub.reqRound) != leaves || len(leafRounds) != leaves {
			t.Fatalf("hub served %d requests, leaves got %d responses, want %d each", len(hub.reqRound), len(leafRounds), leaves)
		}
		for i := 0; i < leaves; i++ {
			if want := 1 + (lat+1)/2 + i; hub.reqRound[i] != want {
				t.Errorf("hub served request %d at round %d, want %d", i, hub.reqRound[i], want)
			}
			if want := 1 + lat + i; leafRounds[i] != want {
				t.Errorf("response %d delivered at round %d, want %d", i, leafRounds[i], want)
			}
		}
	})
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
		if err := ctx.Initiate(h.idx, "again"); err != nil {
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
	gb := graph.New(3)
	gb.MustAddEdge(0, 1, 1)
	gb.MustAddEdge(0, 2, 1)
	gb.MustAddEdge(1, 2, 1)
	g := gb.Build()
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
	gb := graph.New(2)
	gb.MustAddEdge(0, 1, 1)
	g := gb.Build()
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
