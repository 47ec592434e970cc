package live

import (
	"sync"
	"sync/atomic"
	"time"

	"gossip/internal/graph"
)

// This file is the overload-protection half of the stream transport:
// per-peer circuit breakers that stop sends to peers that keep failing or
// that the cluster has given up on, and the OverloadCounts ledger through
// which every bounded queue reports what it shed. The queue caps themselves
// live in stream_transport.go, next to the queues they bound.

// Overload-protection defaults. The queue cap is configurable via
// SetOverloadLimits; zero keeps it, negative disables it.
const (
	// DefaultQueueLimit bounds each connection's writer queue, in frames.
	// Past it, gossip frames are shed oldest-first (push-pull and
	// anti-entropy re-converge after a loss) while membership frames apply
	// hard backpressure (block the enqueuer until the writer drains).
	DefaultQueueLimit = 8192
	// DefaultBreakerThreshold is the number of consecutive delivery failures
	// (messages behind a dial that gave up, broken connections) after which
	// a peer's circuit breaker opens.
	DefaultBreakerThreshold = 8
	// DefaultBreakerCooldown is how long an open breaker waits before
	// half-opening to admit a single probe send, and how long that probe
	// may go unacked before the next send becomes the probe.
	DefaultBreakerCooldown = time.Second
)

// OverloadCounts is the named ledger of everything the transport's overload
// protection shed or refused. All counts are cumulative since the transport
// started; a healthy unloaded run reports all zeros.
type OverloadCounts struct {
	// ShedQueue counts gossip frames shed oldest-first from a full
	// connection writer queue.
	ShedQueue int64
	// ShedPend is always 0: the transport keeps no unacked set to shed
	// from. It stays only while the benchmark harness still reads it.
	ShedPend int64
	// MemberBackpressured counts membership frames that blocked on a full
	// writer queue until the writer drained (hard backpressure, not loss).
	MemberBackpressured int64
	// BreakerOpens counts peer circuit-breaker trips.
	BreakerOpens int64
	// BreakerDrops counts sends refused while a peer's breaker was open.
	BreakerDrops int64
}

// add accumulates other into c.
func (c *OverloadCounts) add(other OverloadCounts) {
	c.ShedQueue += other.ShedQueue
	c.MemberBackpressured += other.MemberBackpressured
	c.BreakerOpens += other.BreakerOpens
	c.BreakerDrops += other.BreakerDrops
}

// Shed returns the total messages the overload protection terminally lost
// (backpressure is not a loss).
func (c OverloadCounts) Shed() int64 {
	return c.ShedQueue + c.BreakerDrops
}

// PeerStatusSink is implemented by transports that react to membership
// verdicts: the live runtime feeds every local detector's view transitions to
// the transport, so sends to a peer the cluster declared dead stop (its
// breaker trips) and a refuted or recovered peer is re-admitted at once.
type PeerStatusSink interface {
	PeerDown(u graph.NodeID)
	PeerUp(u graph.NodeID)
}

// breakerState is a peer circuit breaker's position.
type breakerState uint8

const (
	breakerClosed   breakerState = iota // healthy: all sends pass
	breakerOpen                         // tripped: sends refused until cooldown
	breakerHalfOpen                     // cooldown elapsed: one probe at a time
)

// peerState is the transport's per-peer-address circuit breaker. Peers are
// keyed by listen address — the unit that fails is the process, not the node
// — while membership death is tracked per node and trips the breaker only
// when every node hosted at the address is believed dead.
type peerState struct {
	mu sync.Mutex

	// stA mirrors st for the per-send hot path; it is published under mu by
	// the slow paths below, so a steady-state send touches no lock here.
	stA atomic.Uint32

	st       breakerState
	fails    int       // consecutive failures since the last ack
	reopenAt time.Time // open: when it half-opens; half-open: when the probe expires
	probing  bool      // a half-open probe is in flight

	// deadNodes tracks which nodes routed to this address the membership
	// layer currently believes dead (set via PeerDown/PeerUp).
	deadNodes map[graph.NodeID]struct{}
}

// setSt transitions the breaker state and publishes it to the lock-free
// mirror; the caller holds mu.
func (p *peerState) setSt(s breakerState) {
	p.st = s
	p.stA.Store(uint32(s))
}

// fastClosed reports, without locking, whether the breaker is in its closed
// steady state — in which allow would return true with no state change, so
// the send path can skip the mutex and the clock read entirely. A send
// racing a concurrent trip may still pass, which is benign: it was already
// in flight when the breaker opened.
func (p *peerState) fastClosed() bool {
	return breakerState(p.stA.Load()) == breakerClosed
}

// allow reports whether a send to this peer may proceed. threshold <= 0
// disables the breaker entirely. An open breaker whose cooldown elapsed
// half-opens and admits exactly one probe; further sends are refused until
// the probe resolves: an ack closes the breaker, a failure re-opens it, and a
// probe that went one cooldown without either failed silently, so the next
// send becomes the new probe.
func (p *peerState) allow(threshold int, cooldown time.Duration, now time.Time) bool {
	if threshold <= 0 {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.st {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(p.reopenAt) {
			return false
		}
		p.setSt(breakerHalfOpen)
	default: // breakerHalfOpen
		if p.probing && now.Before(p.reopenAt) {
			return false
		}
	}
	p.probing = true
	p.reopenAt = now.Add(cooldown)
	return true
}

// success records an ack that advanced the peer's count: failures reset and
// a half-open breaker closes.
func (p *peerState) success() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails = 0
	p.probing = false
	if p.st == breakerHalfOpen {
		p.setSt(breakerClosed)
	}
}

// failure records n delivery failures and reports whether the breaker
// tripped open on this call (so the caller counts each trip once).
func (p *peerState) failure(threshold int, cooldown time.Duration, now time.Time, n int) (tripped bool) {
	if threshold <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails += n
	p.probing = false
	switch p.st {
	case breakerHalfOpen:
		// The probe failed: back to open for another cooldown.
		p.setSt(breakerOpen)
		p.reopenAt = now.Add(cooldown)
		return false
	case breakerClosed:
		if p.fails >= threshold {
			p.setSt(breakerOpen)
			p.reopenAt = now.Add(cooldown)
			return true
		}
	}
	return false
}

// trip forces the breaker open (the membership-dead path) and reports whether
// it was not already open.
func (p *peerState) trip(cooldown time.Duration, now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.st == breakerOpen {
		return false
	}
	p.setSt(breakerOpen)
	p.probing = false
	p.reopenAt = now.Add(cooldown)
	return true
}

// reset closes the breaker (the membership-recovery path): the next send
// proceeds immediately.
func (p *peerState) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.setSt(breakerClosed)
	p.fails = 0
	p.probing = false
}

// markDead/markAlive maintain the per-address dead-node set; markDead
// reports whether all of the address's hosted nodes are now believed dead.
func (p *peerState) markDead(u graph.NodeID, hosted int) (allDead bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.deadNodes == nil {
		p.deadNodes = make(map[graph.NodeID]struct{})
	}
	p.deadNodes[u] = struct{}{}
	return hosted > 0 && len(p.deadNodes) >= hosted
}

func (p *peerState) markAlive(u graph.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.deadNodes, u)
}

// state returns the breaker position (tests).
func (p *peerState) state() breakerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}
