package live

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"gossip/internal/graph"
	"gossip/internal/par"
)

// TestShardMailboxCap: a full mailbox sheds gossip posts (reported as handled
// and counted in the overload ledger) but always admits membership traffic.
func TestShardMailboxCap(t *testing.T) {
	s := &shard{rt: &Runtime{mailCap: DefaultMailboxCap}, notify: make(chan struct{}, 1)}
	s.q = make([]post, DefaultMailboxCap)

	if !s.post(Message{Kind: MsgRequest}, 0) {
		t.Fatal("shed gossip post reported false; callers would fall back to the legacy inbox")
	}
	if got := len(s.q); got != DefaultMailboxCap {
		t.Fatalf("gossip post enqueued past the cap: len(q) = %d, want %d", got, DefaultMailboxCap)
	}
	if got := s.rt.mailShed.Load(); got != 1 {
		t.Fatalf("mailShed = %d, want 1", got)
	}

	if !s.post(Message{Kind: MsgMember}, 0) {
		t.Fatal("membership post rejected by a full mailbox")
	}
	if got := len(s.q); got != DefaultMailboxCap+1 {
		t.Fatalf("membership post not admitted past the cap: len(q) = %d, want %d", got, DefaultMailboxCap+1)
	}
	if got := s.rt.mailShed.Load(); got != 1 {
		t.Fatalf("mailShed after membership post = %d, want 1", got)
	}

	// An unbounded mailbox (mailCap <= 0, from Options.MailboxCap < 0)
	// admits gossip past any depth — bulk runs on dedicated hardware trade
	// memory for zero local loss.
	u := &shard{rt: &Runtime{}, notify: make(chan struct{}, 1)}
	u.q = make([]post, DefaultMailboxCap)
	if !u.post(Message{Kind: MsgRequest}, 0) {
		t.Fatal("unbounded mailbox rejected a post")
	}
	if got := len(u.q); got != DefaultMailboxCap+1 {
		t.Fatalf("unbounded mailbox shed: len(q) = %d, want %d", got, DefaultMailboxCap+1)
	}
	if got := u.rt.mailShed.Load(); got != 0 {
		t.Fatalf("unbounded mailbox counted a shed: mailShed = %d", got)
	}
}

// TestRunGoroutinesBoundedByShards: hosted nodes are multiplexed onto
// O(shards) workers. A 10k-node run is sampled while it executes and the
// peak goroutine count above the test's baseline must stay within shard
// loops + wheel driver + watcher + runtime helpers; a goroutine-per-node
// runtime (the pre-shard design: 1 node = 1 goroutine + 1 ticker) overshoots
// the bound by two orders of magnitude.
func TestRunGoroutinesBoundedByShards(t *testing.T) {
	const n = 10_000
	g := graph.RingOfCliques(n/8, 8, 1)
	shards := par.MaxWorkers()
	base := runtime.NumGoroutine()

	tr := NewChanTransport(g.N(), 0)
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
