package sim

import (
	"errors"
	"runtime"
	"testing"

	"gossip/internal/graph"
)

// echoHandler is a minimal state-machine handler used to probe engine
// mechanics: it initiates on a fixed edge at a fixed round and records what
// comes back.
type echoHandler struct {
	initiateAt int
	edgeIdx    int
	payload    Payload

	gotRequests  []Request
	gotResponses []Response
	reqRound     []int
	respRound    []int
}

func (h *echoHandler) Start(ctx *Context) {}

func (h *echoHandler) Tick(ctx *Context) {
	if ctx.Round() == h.initiateAt && h.payload != nil {
		if err := ctx.Initiate(h.edgeIdx, h.payload); err != nil {
			panic(err)
		}
	}
}

func (h *echoHandler) OnRequest(ctx *Context, req Request) Payload {
	h.gotRequests = append(h.gotRequests, req)
	h.reqRound = append(h.reqRound, ctx.Round())
	return "ack"
}

func (h *echoHandler) OnResponse(ctx *Context, resp Response) {
	h.gotResponses = append(h.gotResponses, resp)
	h.respRound = append(h.respRound, ctx.Round())
}

func (h *echoHandler) Done() bool { return false }

func pair(latency int) (*graph.Graph, *Network, *echoHandler, *echoHandler) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, latency)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 100})
	a := &echoHandler{initiateAt: 1, edgeIdx: 0, payload: "hello"}
	b := &echoHandler{}
	nw.SetHandler(0, a)
	nw.SetHandler(1, b)
	return g, nw, a, b
}

func TestExchangeRoundTripEqualsLatency(t *testing.T) {
	for _, lat := range []int{1, 2, 3, 7, 10} {
		_, nw, a, b := pair(lat)
		_, err := nw.Run(func(nw *Network) bool { return len(a.gotResponses) > 0 })
		if err != nil {
			t.Fatalf("lat=%d: %v", lat, err)
		}
		if len(b.gotRequests) != 1 {
			t.Fatalf("lat=%d: responder got %d requests", lat, len(b.gotRequests))
		}
		// Request arrives at ⌈ℓ/2⌉ after initiation (round 1).
		wantReq := 1 + (lat+1)/2
		if b.reqRound[0] != wantReq {
			t.Errorf("lat=%d: request delivered at round %d, want %d", lat, b.reqRound[0], wantReq)
		}
		// Response returns exactly ℓ rounds after initiation.
		wantResp := 1 + lat
		if a.respRound[0] != wantResp {
			t.Errorf("lat=%d: response delivered at round %d, want %d", lat, a.respRound[0], wantResp)
		}
		if a.gotResponses[0].Latency != lat {
			t.Errorf("lat=%d: response reported latency %d", lat, a.gotResponses[0].Latency)
		}
		if a.gotResponses[0].Payload != "ack" {
			t.Errorf("lat=%d: payload %v", lat, a.gotResponses[0].Payload)
		}
	}
}

func TestFullRTTDeliveryAblation(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 8)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 100, FullRTTDelivery: true})
	a := &echoHandler{initiateAt: 1, edgeIdx: 0, payload: "x"}
	b := &echoHandler{}
	nw.SetHandler(0, a)
	nw.SetHandler(1, b)
	if _, err := nw.Run(func(nw *Network) bool { return len(a.gotResponses) > 0 }); err != nil {
		t.Fatal(err)
	}
	if b.reqRound[0] != 9 {
		t.Errorf("full-RTT request delivered at %d, want 9", b.reqRound[0])
	}
	if a.respRound[0] != 9 {
		t.Errorf("full-RTT response delivered at %d, want 9", a.respRound[0])
	}
}

func TestOneInitiationPerRound(t *testing.T) {
	g := graph.Clique(3, 1)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 10})
	var errSecond error
	greedy := &funcHandler{
		tick: func(ctx *Context) {
			if ctx.Round() != 1 {
				return
			}
			if err := ctx.Initiate(0, "a"); err != nil {
				panic(err)
			}
			errSecond = ctx.Initiate(1, "b")
		},
	}
	nw.SetHandler(0, greedy)
	nw.SetHandler(1, &funcHandler{})
	nw.SetHandler(2, &funcHandler{})
	if _, err := nw.Run(func(nw *Network) bool { return nw.Round() >= 2 }); err != nil {
		t.Fatal(err)
	}
	if errSecond == nil {
		t.Error("second initiation in one round must fail")
	}
}

func TestInitiateValidation(t *testing.T) {
	g := graph.Path(2, 1)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 5})
	var gotErr error
	h := &funcHandler{tick: func(ctx *Context) {
		if ctx.Round() == 1 {
			gotErr = ctx.Initiate(5, "x")
		}
	}}
	nw.SetHandler(0, h)
	nw.SetHandler(1, &funcHandler{})
	if _, err := nw.Run(func(nw *Network) bool { return nw.Round() >= 2 }); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Error("out-of-range edge index must fail")
	}
}

// funcHandler adapts closures to Handler.
type funcHandler struct {
	tick func(ctx *Context)
	done func() bool
}

func (h *funcHandler) Start(ctx *Context) {}
func (h *funcHandler) Tick(ctx *Context) {
	if h.tick != nil {
		h.tick(ctx)
	}
}
func (h *funcHandler) OnRequest(ctx *Context, req Request) Payload { return nil }
func (h *funcHandler) OnResponse(ctx *Context, resp Response)      {}
func (h *funcHandler) Done() bool                                  { return h.done != nil && h.done() }

func TestLatencyHiddenWhenUnknown(t *testing.T) {
	g := graph.Path(2, 7)
	for _, known := range []bool{true, false} {
		nw := NewNetwork(g, Config{Seed: 1, KnownLatencies: known, MaxRounds: 3})
		var sawLatency int
		h := &funcHandler{tick: func(ctx *Context) {
			sawLatency = ctx.Neighbor(0).Latency
		}}
		nw.SetHandler(0, h)
		nw.SetHandler(1, &funcHandler{})
		if _, err := nw.Run(func(nw *Network) bool { return nw.Round() >= 1 }); err != nil {
			t.Fatal(err)
		}
		want := 0
		if known {
			want = 7
		}
		if sawLatency != want {
			t.Errorf("known=%v: EdgeView.Latency = %d, want %d", known, sawLatency, want)
		}
	}
}

func TestMaxRounds(t *testing.T) {
	g := graph.Path(2, 1)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 5})
	nw.SetHandler(0, &echoHandler{initiateAt: -1})
	nw.SetHandler(1, &echoHandler{})
	_, err := nw.Run(func(nw *Network) bool { return false })
	if !errors.Is(err, ErrStalled) && !errors.Is(err, ErrMaxRounds) {
		t.Errorf("expected stall or max-rounds, got %v", err)
	}
}

func TestMissingHandlerRejected(t *testing.T) {
	g := graph.Path(2, 1)
	nw := NewNetwork(g, Config{Seed: 1})
	nw.SetHandler(0, &funcHandler{})
	if _, err := nw.Run(nil); err == nil {
		t.Error("run with missing handler must fail")
	}
}

func TestMetricsAccounting(t *testing.T) {
	_, nw, a, _ := pair(4)
	res, err := nw.Run(func(nw *Network) bool { return len(a.gotResponses) > 0 })
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Requests != 1 || res.Metrics.Responses != 1 {
		t.Errorf("metrics = %+v, want 1 request + 1 response", res.Metrics)
	}
	if res.Metrics.EdgeActivations != 1 {
		t.Errorf("activations = %d", res.Metrics.EdgeActivations)
	}
	if res.Metrics.Messages() != 2 {
		t.Errorf("Messages() = %d", res.Metrics.Messages())
	}
}

// ---- Proc (coroutine) layer ----

func TestProcExchangeBlocksExactly(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 6)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 100})
	var started, finished int
	p0 := NewProc(func(p *Proc) {
		started = p.Round()
		resp := p.Exchange(0, "ping")
		finished = p.Round()
		if resp.Payload != "pong" {
			panic("bad payload")
		}
	})
	p1 := NewProc(func(p *Proc) {})
	p1.HandleRequests(func(p *Proc, req Request) Payload { return "pong" })
	nw.SetHandler(0, p0)
	nw.SetHandler(1, p1)
	if _, err := nw.Run(nil); err != nil {
		t.Fatal(err)
	}
	if finished-started != 6 {
		t.Errorf("Exchange over latency-6 edge took %d rounds, want 6", finished-started)
	}
}

func TestProcSendNonBlocking(t *testing.T) {
	// A proc sends on a slow edge and continues sending on fast ones while
	// the slow exchange is in flight (non-blocking model).
	g := graph.New(3)
	slow := g.MustAddEdge(0, 1, 10)
	_ = slow
	g.MustAddEdge(0, 2, 1)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 100})
	var fastResponses, slowResponses int
	p0 := NewProc(func(p *Proc) {
		p.Send(0, "slow") // latency 10
		for i := 0; i < 5; i++ {
			p.Send(1, "fast")
		}
		p.WaitRounds(20)
	})
	p0.HandleResponses(func(p *Proc, resp Response) {
		if resp.Latency == 10 {
			slowResponses++
		} else {
			fastResponses++
		}
	})
	nw.SetHandler(0, p0)
	nw.SetHandler(1, NewProc(func(p *Proc) {}))
	nw.SetHandler(2, NewProc(func(p *Proc) {}))
	if _, err := nw.Run(nil); err != nil {
		t.Fatal(err)
	}
	if slowResponses != 1 || fastResponses != 5 {
		t.Errorf("responses slow=%d fast=%d, want 1/5", slowResponses, fastResponses)
	}
}

func TestProcWaitRounds(t *testing.T) {
	g := graph.Path(2, 1)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 100})
	var before, after int
	nw.SetHandler(0, NewProc(func(p *Proc) {
		before = p.Round()
		p.WaitRounds(13)
		after = p.Round()
	}))
	nw.SetHandler(1, NewProc(func(p *Proc) {}))
	if _, err := nw.Run(nil); err != nil {
		t.Fatal(err)
	}
	if after-before != 13 {
		t.Errorf("WaitRounds(13) elapsed %d rounds", after-before)
	}
}

func TestProcShutdownNoLeak(t *testing.T) {
	// A proc that would wait forever must be unwound by Close without
	// leaking its coroutine: one parked in WaitRounds, and one parked in an
	// Exchange toward a peer that crashed, so its response never comes.
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name    string
		crashes map[graph.NodeID]int
		body    ProcFunc
	}{
		{"wait", nil, func(p *Proc) { p.WaitRounds(1 << 30) }},
		{"exchange-to-crashed", map[graph.NodeID]int{1: 1}, func(p *Proc) { p.Exchange(0, "x") }},
	} {
		unwound := 0
		for i := 0; i < 10; i++ {
			g := graph.Path(2, 1)
			nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 5, Crashes: tc.crashes})
			nw.SetHandler(0, NewProc(func(p *Proc) {
				defer func() { unwound++ }()
				tc.body(p)
			}))
			nw.SetHandler(1, NewProc(func(p *Proc) {}))
			_, err := nw.Run(nil)
			if err == nil {
				t.Fatalf("%s: expected round-budget error", tc.name)
			}
			nw.Close()
		}
		if unwound != 10 {
			t.Errorf("%s: %d of 10 parked bodies unwound", tc.name, unwound)
		}
	}
	runtime.Gosched()
	runtime.GC()
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Errorf("goroutines grew from %d to %d; proc leak", before, after)
	}
}

// TestProcPanicUnwindsOthers: a body that panics surfaces as a panic from
// Network.Run on the caller's goroutine, where it can be recovered, and Run
// still unwinds every other parked body on its way out.
func TestProcPanicUnwindsOthers(t *testing.T) {
	const n = 4
	g := graph.Clique(n, 1)
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 100})
	unwound := 0
	for u := 0; u < n; u++ {
		nw.SetHandler(u, NewProc(func(p *Proc) {
			if p.ID() == 2 {
				p.WaitRounds(3)
				panic("boom")
			}
			defer func() { unwound++ }()
			p.Exchange(0, "x")
			p.WaitRounds(1 << 30)
		}))
	}
	var got any
	func() {
		defer func() { got = recover() }()
		_, _ = nw.Run(nil)
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want the body's panic", got)
	}
	if unwound != n-1 {
		t.Errorf("%d of %d parked bodies unwound", unwound, n-1)
	}
}

func TestProcDeterministicRand(t *testing.T) {
	run := func() int {
		g := graph.Clique(4, 1)
		nw := NewNetwork(g, Config{Seed: 99, MaxRounds: 50})
		total := 0
		for u := 0; u < 4; u++ {
			nw.SetHandler(u, NewProc(func(p *Proc) {
				for i := 0; i < 5; i++ {
					total += p.Rand().Intn(1000)
					p.Yield()
				}
			}))
		}
		if _, err := nw.Run(nil); err != nil {
			t.Fatal(err)
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different random draws: %d vs %d", a, b)
	}
}

func TestNHintDefaultsAndOverride(t *testing.T) {
	g := graph.Path(3, 1)
	nw := NewNetwork(g, Config{Seed: 1})
	if nw.NHint() != 3 {
		t.Errorf("default NHint = %d, want n", nw.NHint())
	}
	nw2 := NewNetwork(g, Config{Seed: 1, NHint: 10})
	if nw2.NHint() != 10 {
		t.Errorf("NHint = %d, want 10", nw2.NHint())
	}
}
