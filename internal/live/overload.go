package live

// This file holds the stream transport's overload-protection default and
// the OverloadCounts ledger through which every bounded queue reports what
// it shed. The queues themselves live in stream_transport.go, where their
// caps are enforced.

// DefaultQueueLimit bounds each connection's writer queue, in frames. Past
// it, gossip frames are shed oldest-first (push-pull and anti-entropy
// re-converge after a loss) while membership frames apply hard backpressure
// (block the enqueuer until the writer drains). SetOverloadLimits tunes it;
// zero keeps it, negative disables it.
const DefaultQueueLimit = 8192

// OverloadCounts is the named ledger of everything the transport's overload
// protection shed or delayed. All counts are cumulative since the transport started; a
// healthy unloaded run reports all zeros.
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
	// BreakerOpens is always 0: the transport has no circuit breaker (a
	// send toward an address whose every node membership declared dead is
	// refused and counted in Dropped). It stays only while the benchmark
	// harness still reads it.
	BreakerOpens int64
}

// add accumulates other into c.
func (c *OverloadCounts) add(other OverloadCounts) {
	c.ShedQueue += other.ShedQueue
	c.MemberBackpressured += other.MemberBackpressured
}

// Shed returns the total messages the overload protection terminally lost
// (backpressure is not a loss).
func (c OverloadCounts) Shed() int64 {
	return c.ShedQueue
}
