package member

import (
	"sort"
	"testing"
)

// quantile returns the q-quantile (0..1) of xs by nearest-rank.
func quantile(xs []int, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int(nil), xs...)
	sort.Ints(s)
	i := int(q * float64(len(s)-1))
	return float64(s[i])
}

// BenchmarkMembershipConvergence measures a 64-node single-seed join to full
// convergence, reporting ticks and packets alongside wall time.
func BenchmarkMembershipConvergence(b *testing.B) {
	var ticks, sent float64
	for i := 0; i < b.N; i++ {
		c := NewCluster(64, Config{Seed: uint64(i + 1)}, nil)
		took := c.RunUntil(4*c.Config().SyncInterval, c.Converged)
		if took < 0 {
			b.Fatal("cluster failed to converge")
		}
		ticks += float64(took)
		sent += float64(c.Sent)
	}
	b.ReportMetric(ticks/float64(b.N), "ticks-to-converge/op")
	b.ReportMetric(sent/float64(b.N), "msgs/op")
}

// BenchmarkMembershipDetection crashes one node of a converged 64-node
// cluster and measures per-observer detection latency, reporting the p50 and
// p99 ticks-to-detect in lockstep ticks (deterministic per seed; the
// DetectionBound tests hold the same quantity under its analytic bound).
func BenchmarkMembershipDetection(b *testing.B) {
	var all []int
	for i := 0; i < b.N; i++ {
		c := NewCluster(64, Config{Seed: uint64(i + 1), Record: true}, nil)
		if c.RunUntil(4*c.Config().SyncInterval, c.Converged) < 0 {
			b.Fatal("cluster failed to converge")
		}
		victim := 1 + i%63
		crashTick := c.Now()
		c.Crash(victim)
		bound := c.Config().DetectionBound(64)
		if c.RunUntil(bound, func() bool { return c.AllBelieve(victim, Dead) }) < 0 {
			b.Fatal("crash undetected within bound")
		}
		all = append(all, c.DetectionTicks(victim, crashTick)...)
	}
	b.ReportMetric(quantile(all, 0.50), "p50-detect-ticks/op")
	b.ReportMetric(quantile(all, 0.99), "p99-detect-ticks/op")
}

// BenchmarkMembershipChurn runs the sustained crash/restart schedule of the
// churn experiments: per iteration one crash detected cluster-wide plus one
// restart re-admitted, on a 32-node cluster.
func BenchmarkMembershipChurn(b *testing.B) {
	c := NewCluster(32, Config{Seed: 1, Record: true}, nil)
	if c.RunUntil(4*c.Config().SyncInterval, c.Converged) < 0 {
		b.Fatal("cluster failed to converge")
	}
	bound := c.Config().DetectionBound(32)
	var all []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := 1 + i%31
		crashTick := c.Now()
		c.Crash(victim)
		if c.RunUntil(bound, func() bool { return c.AllBelieve(victim, Dead) }) < 0 {
			b.Fatal("crash undetected within bound")
		}
		all = append(all, c.DetectionTicks(victim, crashTick)...)
		c.Restart(victim, []int{0})
		if c.RunUntil(4*c.Config().SyncInterval, func() bool { return c.AllBelieve(victim, Alive) }) < 0 {
			b.Fatal("restart not re-admitted")
		}
	}
	b.StopTimer()
	b.ReportMetric(quantile(all, 0.50), "p50-detect-ticks/op")
	b.ReportMetric(quantile(all, 0.99), "p99-detect-ticks/op")
}

// BenchmarkMembershipTick isolates the per-tick cost of one node's detector
// in a 64-member view — the overhead membership adds to every live tick.
func BenchmarkMembershipTick(b *testing.B) {
	cfg := Config{Seed: 1, N: 64}.Defaulted()
	nd := New(0, nil, cfg)
	for v := 1; v < 64; v++ {
		nd.Receive(Packet{Kind: PktSyncAck, From: v, Updates: []Update{{Node: v, St: Alive, Inc: 1}}}, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd.Tick(i + 1)
	}
}

// BenchmarkMembershipPacketCodec round-trips a piggybacked ping through the
// wire form.
func BenchmarkMembershipPacketCodec(b *testing.B) {
	p := Packet{Kind: PktPing, From: 3, Origin: 3, Subject: 9, Seq: 77}
	for v := 0; v < DefaultMaxPiggyback; v++ {
		p.Updates = append(p.Updates, Update{Node: v * 97, St: State(v % 3), Inc: uint32(v)})
	}
	b.ReportAllocs()
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.AppendWire(buf[:0])
		if _, err := DecodePacket(buf); err != nil {
			b.Fatal(err)
		}
	}
}
