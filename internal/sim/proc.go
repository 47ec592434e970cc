//go:build go1.23

package sim

import (
	"iter"
	"math/rand"

	"gossip/internal/graph"
)

// ProcFunc is the body of a coroutine protocol. It runs as a coroutine that
// the engine owning the node resumes in strict lockstep: user code executes
// only between round barriers, on the engine's behalf, so a ProcFunc may
// freely share state with its request/response handlers without additional
// locking.
type ProcFunc func(p *Proc)

// procStopped unwinds a parked body through the user's frames when the
// proc is stopped before its body returns: a body blocked in Exchange,
// Yield or WaitRounds has no other way out. It never escapes this package:
// run recovers it, so Stop returns cleanly.
type procStopped struct{}

// Proc adapts a sequential ProcFunc to the Handler interface. Protocols like
// DTG, RR Broadcast and EID are naturally sequential programs with blocking
// waits; Proc lets them be written that way:
//
//	p.Exchange(idx, msg)  // initiate and block until the response returns
//	p.Send(idx, msg)      // initiate without blocking (non-blocking model)
//	p.Yield()             // wait one round
//
// Incoming requests are answered by the handler installed with
// HandleRequests, which runs while the body is parked.
type Proc struct {
	fn         ProcFunc
	onRequest  func(p *Proc, req Request) Payload
	onResponse func(p *Proc, resp Response)

	ctx      *Context
	finished bool

	// resume runs the body until it parks again, reporting false once it
	// has returned; yield parks it; stop unwinds it (see Start).
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()

	park     parkKind
	nextWake int
	// A body blocks on at most one Exchange at a time: awaiting is set
	// while it waits for the response to the exchange it initiated on edge
	// awaitIdx in round awaitRound, and resp holds that response once it
	// arrives.
	awaiting   bool
	awaitIdx   int
	awaitRound int
	resp       Response
}

// parkKind is what a parked body waits for. The zero value is a body not
// yet resumed for the first time.
type parkKind uint8

const (
	parkYield parkKind = iota + 1
	parkWaitRound
	parkWaitResp
)

// NewProc wraps fn as a coroutine handler.
func NewProc(fn ProcFunc) *Proc { return &Proc{fn: fn} }

// HandleRequests installs the responder: fn is called for every incoming
// request and returns the response payload. It must be installed before the
// run starts (typically right after NewProc).
func (p *Proc) HandleRequests(fn func(p *Proc, req Request) Payload) *Proc {
	p.onRequest = fn
	return p
}

// HandleResponses installs the callback for responses to non-blocking Sends.
func (p *Proc) HandleResponses(fn func(p *Proc, resp Response)) *Proc {
	p.onResponse = fn
	return p
}

// Start creates the body's coroutine, which first runs on the first Tick.
func (p *Proc) Start(ctx *Context) {
	p.ctx = ctx
	p.resume, p.stop = iter.Pull(p.run)
}

// run is the coroutine: the body, with the stop unwinding recovered. Any
// other panic propagates to whoever resumed the body.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procStopped); !ok {
				panic(r)
			}
		}
	}()
	p.fn(p)
}

// Tick resumes the body when its park condition is satisfied.
func (p *Proc) Tick(ctx *Context) {
	if p.finished {
		return
	}
	switch p.park {
	case parkWaitRound:
		if ctx.Round() < p.nextWake {
			return
		}
	case parkWaitResp:
		if p.awaiting {
			return
		}
	}
	_, alive := p.resume()
	p.finished = !alive
}

// parkAs records the park condition and hands control back to the engine.
func (p *Proc) parkAs(kind parkKind) {
	p.park = kind
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
}

// OnRequest implements Handler by delegating to the installed responder.
func (p *Proc) OnRequest(ctx *Context, req Request) Payload {
	if p.onRequest == nil {
		return nil
	}
	return p.onRequest(p, req)
}

// OnResponse implements Handler: the response a blocked Exchange awaits is
// kept for it, matched by the edge it came back on and the round it was
// initiated in; all others go to the HandleResponses callback.
func (p *Proc) OnResponse(ctx *Context, resp Response) {
	if p.awaiting && resp.EdgeIndex == p.awaitIdx && resp.InitiatedAt == p.awaitRound {
		p.awaiting = false
		p.resp = resp
		return
	}
	if p.onResponse != nil {
		p.onResponse(p, resp)
	}
}

// Done implements Handler.
func (p *Proc) Done() bool { return p.finished }

// Stop unwinds the body if it is parked and marks the proc finished. The
// round simulator calls it on Close, and the live runtime for crashed or
// shut-down nodes, so a parked body never outlives its node. It must be
// called from the engine that owns the node, never from the body, and is
// idempotent.
func (p *Proc) Stop() {
	if p.stop == nil {
		return
	}
	p.stop()
	p.finished = true
}

// ---- API available to the ProcFunc body ----

// ID returns the node's identifier.
func (p *Proc) ID() graph.NodeID { return p.ctx.ID() }

// NHint returns the network-size upper bound known to nodes.
func (p *Proc) NHint() int { return p.ctx.NHint() }

// Round returns the current round.
func (p *Proc) Round() int { return p.ctx.Round() }

// Degree returns the node's degree.
func (p *Proc) Degree() int { return p.ctx.Degree() }

// Neighbor returns the idx-th incident edge view.
func (p *Proc) Neighbor(idx int) EdgeView { return p.ctx.Neighbor(idx) }

// Neighbors returns all incident edge views.
func (p *Proc) Neighbors() []EdgeView { return p.ctx.Neighbors() }

// Rand returns the node's deterministic random stream.
func (p *Proc) Rand() *rand.Rand { return p.ctx.Rand() }

// Yield parks the proc until the next round.
func (p *Proc) Yield() { p.parkAs(parkYield) }

// WaitRounds parks the proc for k rounds (k <= 0 behaves like Yield).
func (p *Proc) WaitRounds(k int) {
	if k <= 0 {
		p.Yield()
		return
	}
	p.nextWake = p.Round() + k
	p.parkAs(parkWaitRound)
}

// Send initiates an exchange on edge idx without blocking for the response
// (which will be delivered to the HandleResponses callback). If this node
// already initiated an exchange this round, Send waits for the next round.
func (p *Proc) Send(idx int, payload Payload) {
	for p.ctx.Initiate(idx, payload) != nil {
		p.Yield()
	}
}

// Exchange initiates an exchange on edge idx and blocks until its response
// returns, which takes exactly the edge latency in rounds. Responses to
// other in-flight Sends are still delivered to HandleResponses while blocked.
func (p *Proc) Exchange(idx int, payload Payload) Response {
	for p.ctx.Initiate(idx, payload) != nil {
		p.Yield()
	}
	p.awaiting, p.awaitIdx, p.awaitRound = true, idx, p.Round()
	p.parkAs(parkWaitResp)
	return p.resp
}
