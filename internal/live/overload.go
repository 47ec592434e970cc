package live

// OverloadCounts is the overload ledger. Nothing sheds: a congested
// connection holds the runtime's initiation, and a full shard mailbox stops
// the reader that posts to it (see StreamTransport.congested and
// shard.post), so every count reads 0. The type stays only while the
// benchmark harness still reads it.
type OverloadCounts struct {
	// ShedQueue is always 0: no writer queue or mailbox sheds.
	ShedQueue int64
	// ShedPend is always 0: the transport keeps no unacked set to shed
	// from.
	ShedPend int64
	// BreakerOpens is always 0: the transport has no circuit breaker (a
	// send toward an address whose every node membership declared dead is
	// refused and counted in Dropped).
	BreakerOpens int64
}

// Shed returns the total messages the overload protection terminally lost:
// always 0.
func (c OverloadCounts) Shed() int64 {
	return c.ShedQueue
}
