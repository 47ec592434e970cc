package live

import (
	"sync"
	"sync/atomic"
	"time"

	"gossip/internal/graph"
)

// This file is the overload-protection half of the TCP transport: per-peer
// adaptive retransmission state (a Jacobson-style RTT estimator driving the
// RTO), per-peer circuit breakers that stop retransmission spend on peers the
// cluster has given up on, and the OverloadCounts ledger through which every
// bounded queue reports what it shed. The queue caps themselves live in
// tcp_transport.go, next to the queues they bound.

// Overload-protection defaults. The caps are configurable via
// SetOverloadLimits; zero keeps these, negative disables the cap.
const (
	// DefaultQueueLimit bounds each connection's writer queue, in frames.
	// Past it, gossip frames are shed oldest-first (push-pull and
	// anti-entropy re-converge after a loss) while membership frames apply
	// hard backpressure (block the enqueuer until the writer drains).
	DefaultQueueLimit = 8192
	// DefaultPendingLimit bounds the unacked reliable-delivery (pend) set
	// across the transport. Past it, the oldest gossip entry of the full
	// shard is shed to admit the newcomer; membership entries are exempt
	// (their volume is bounded by the detector's probe rate).
	DefaultPendingLimit = 1 << 15
	// DefaultBreakerThreshold is the number of consecutive delivery failures
	// (retransmit give-ups, dial failures, broken connections) after which a
	// peer's circuit breaker opens.
	DefaultBreakerThreshold = 8
	// DefaultBreakerCooldown is how long an open breaker waits before
	// half-opening to admit a single probe send.
	DefaultBreakerCooldown = time.Second
	// DefaultRTOMin and DefaultRTOMax clamp the adaptive RTO. An explicit
	// SetRetransmit RTO raises the floor to itself, so callers that demand a
	// quiet wire (benchmarks) or a fast one (tests) keep what they asked for.
	DefaultRTOMin = 50 * time.Millisecond
	DefaultRTOMax = 30 * time.Second
)

// OverloadCounts is the named ledger of everything the transport's overload
// protection shed, refused, or trimmed. All counts are cumulative since the
// transport started; a healthy unloaded run reports all zeros.
type OverloadCounts struct {
	// ShedQueue counts gossip frames shed oldest-first from a full
	// connection writer queue.
	ShedQueue int64
	// ShedPend counts gossip entries evicted oldest-first from a full
	// pend (unacked reliable-delivery) shard.
	ShedPend int64
	// MemberBackpressured counts membership frames that blocked on a full
	// writer queue until the writer drained (hard backpressure, not loss).
	MemberBackpressured int64
	// RetryBurstTrimmed counts in-flight seqs a broken connection left to
	// their ordinary RTO timers instead of retrying immediately, because the
	// immediate-retry burst hit its cap.
	RetryBurstTrimmed int64
	// DroppedDeadPeer counts in-flight seqs flushed because the membership
	// layer declared their destination node dead.
	DroppedDeadPeer int64
	// BreakerOpens counts peer circuit-breaker trips.
	BreakerOpens int64
	// BreakerDrops counts sends refused (and pend entries flushed) while a
	// peer's breaker was open.
	BreakerDrops int64
}

// add accumulates other into c.
func (c *OverloadCounts) add(other OverloadCounts) {
	c.ShedQueue += other.ShedQueue
	c.ShedPend += other.ShedPend
	c.MemberBackpressured += other.MemberBackpressured
	c.RetryBurstTrimmed += other.RetryBurstTrimmed
	c.DroppedDeadPeer += other.DroppedDeadPeer
	c.BreakerOpens += other.BreakerOpens
	c.BreakerDrops += other.BreakerDrops
}

// Shed returns the total messages the overload protection terminally lost
// (backpressure and trimmed retries are not losses).
func (c OverloadCounts) Shed() int64 {
	return c.ShedQueue + c.ShedPend + c.DroppedDeadPeer + c.BreakerDrops
}

// PeerStatusSink is implemented by transports that react to membership
// verdicts: the live runtime feeds every local detector's view transitions to
// the transport, so a peer the cluster declared dead stops consuming
// retransmission budget (its breaker trips, its in-flight seqs are flushed)
// and a refuted or recovered peer is re-admitted through a half-open probe.
type PeerStatusSink interface {
	PeerDown(u graph.NodeID)
	PeerUp(u graph.NodeID)
}

// breakerState is a peer circuit breaker's position.
type breakerState uint8

const (
	breakerClosed   breakerState = iota // healthy: all sends pass
	breakerOpen                         // tripped: sends refused until cooldown
	breakerHalfOpen                     // cooldown elapsed: one probe in flight
)

// peerState is the transport's per-peer-address adaptive state: the RTT
// estimator feeding the retransmission timeout and the circuit breaker.
// Peers are keyed by listen address — the unit that fails is the process,
// not the node — while membership death is tracked per node and trips the
// breaker only when every node hosted at the address is believed dead.
type peerState struct {
	mu sync.Mutex

	// rtoC and stA are the lock-free mirrors the per-send hot path reads:
	// rtoC caches srtt+4·rttvar (0 = no sample yet, use the fallback), stA
	// mirrors st. Both are published under mu by the slow paths below, so a
	// steady-state send touches no lock in this struct.
	rtoC atomic.Int64
	stA  atomic.Uint32

	// Jacobson/Karn RTT estimation: srtt and rttvar are the smoothed mean
	// and variance, updated only from unretransmitted exchanges (Karn's
	// rule), rto = srtt + 4·rttvar clamped to the transport's bounds.
	hasRTT bool
	srtt   time.Duration
	rttvar time.Duration

	st       breakerState
	fails    int       // consecutive failures since the last ack
	reopenAt time.Time // when an open breaker half-opens
	probing  bool      // a half-open probe is in flight

	// deadNodes tracks which nodes routed to this address the membership
	// layer currently believes dead (set via PeerDown/PeerUp).
	deadNodes map[graph.NodeID]struct{}
}

// observeRTT folds one round-trip sample into the estimator (RFC 6298
// smoothing constants) and publishes the resulting base RTO to the lock-free
// cache.
func (p *peerState) observeRTT(rtt time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.hasRTT {
		p.hasRTT = true
		p.srtt = rtt
		p.rttvar = rtt / 2
	} else {
		dev := p.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		p.rttvar = (3*p.rttvar + dev) / 4
		p.srtt = (7*p.srtt + rtt) / 8
	}
	rto := p.srtt + 4*p.rttvar
	if rto <= 0 {
		rto = 1 // a zero cache means "no sample"; clamp keeps this sane
	}
	p.rtoC.Store(int64(rto))
}

// rto returns the adaptive base timeout, or fallback while no sample exists,
// clamped to [min, max]. Reads only the published cache — this is on the
// per-send hot path (every retransmission timer arms through it).
func (p *peerState) rto(fallback, min, max time.Duration) time.Duration {
	rto := time.Duration(p.rtoC.Load())
	if rto == 0 {
		rto = fallback
	}
	if rto < min {
		rto = min
	}
	if rto > max {
		rto = max
	}
	return rto
}

// setSt transitions the breaker state and publishes it to the lock-free
// mirror; the caller holds mu.
func (p *peerState) setSt(s breakerState) {
	p.st = s
	p.stA.Store(uint32(s))
}

// fastClosed reports, without locking, whether the breaker is in its closed
// steady state — in which allow/allowRetry would return true with no state
// change, so the send path can skip the mutex and the clock read entirely. A
// send racing a concurrent trip may still pass, which is benign: it was
// already in flight when the breaker opened.
func (p *peerState) fastClosed() bool {
	return breakerState(p.stA.Load()) == breakerClosed
}

// allow reports whether a send to this peer may proceed. threshold <= 0
// disables the breaker entirely. An open breaker whose cooldown elapsed
// half-opens and admits exactly one probe; further sends are refused until
// the probe resolves (success closes the breaker, failure re-opens it).
func (p *peerState) allow(threshold int, now time.Time) bool {
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
		p.probing = true
		return true
	default: // breakerHalfOpen
		if p.probing {
			return false
		}
		p.probing = true
		return true
	}
}

// allowRetry is allow for retransmissions of an already-admitted message. It
// differs in the half-open state: a retransmission IS probe traffic (its
// message was admitted before the trip or as the probe itself), so it passes
// — refusing it would cancel the probe's own retry and strand the breaker
// half-open forever.
func (p *peerState) allowRetry(threshold int, now time.Time) bool {
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
		p.probing = true
		return true
	default: // breakerHalfOpen
		p.probing = true
		return true
	}
}

// success records an acked exchange: failures reset and a half-open breaker
// closes.
func (p *peerState) success() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails = 0
	p.probing = false
	if p.st == breakerHalfOpen {
		p.setSt(breakerClosed)
	}
}

// failure records one delivery failure and reports whether the breaker
// tripped open on this call (so the caller can count the trip and flush the
// peer's pend entries exactly once per trip).
func (p *peerState) failure(threshold int, cooldown time.Duration, now time.Time) (tripped bool) {
	if threshold <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails++
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
