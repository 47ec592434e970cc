package sim

import (
	"testing"

	"gossip/internal/graph"
)

// TestProcStressLockstep drives many coroutine procs with mixed blocking and
// non-blocking operations and verifies global lockstep: every proc observes
// every round exactly once.
func TestProcStressLockstep(t *testing.T) {
	const n = 200
	const rounds = 50
	g := graph.Cycle(n, 2)
	nw := NewNetwork(g, Config{Seed: 9, MaxRounds: 10 * rounds})
	observed := make([][]int, n)
	for u := 0; u < n; u++ {
		u := u
		p := NewProc(func(p *Proc) {
			for p.Round() < rounds {
				observed[u] = append(observed[u], p.Round())
				switch p.Round() % 3 {
				case 0:
					p.Send(p.Round()%p.Degree(), "ping")
					p.Yield()
				case 1:
					p.Exchange((p.Round()+1)%p.Degree(), "xchg")
				default:
					p.Yield()
				}
			}
		})
		p.HandleRequests(func(p *Proc, req Request) Payload { return "ack" })
		nw.SetHandler(u, p)
	}
	if _, err := nw.Run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	for u := 0; u < n; u++ {
		prev := 0
		for _, r := range observed[u] {
			if r <= prev && prev != 0 {
				t.Fatalf("proc %d observed non-increasing rounds: %v", u, observed[u])
			}
			prev = r
		}
		if len(observed[u]) == 0 {
			t.Fatalf("proc %d never ran", u)
		}
	}
}

// TestProcManyBlockingExchanges verifies a long chain of sequential
// exchanges completes with exact timing: k exchanges over latency-ℓ edges
// take exactly k·ℓ rounds.
func TestProcManyBlockingExchanges(t *testing.T) {
	const k, lat = 25, 3
	gb := graph.New(2)
	gb.MustAddEdge(0, 1, lat)
	g := gb.Build()
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 10 * k * lat})
	var elapsed int
	p0 := NewProc(func(p *Proc) {
		start := p.Round()
		for i := 0; i < k; i++ {
			p.Exchange(0, i)
		}
		elapsed = p.Round() - start
	})
	p1 := NewProc(func(p *Proc) {})
	p1.HandleRequests(func(p *Proc, req Request) Payload { return req.Payload })
	nw.SetHandler(0, p0)
	nw.SetHandler(1, p1)
	if _, err := nw.Run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if elapsed != k*lat {
		t.Errorf("%d exchanges of latency %d took %d rounds, want %d", k, lat, elapsed, k*lat)
	}
}

// TestManyNetworksSequential guards against cross-run state leaks: repeated
// construction and teardown of networks with procs must behave identically.
func TestManyNetworksSequential(t *testing.T) {
	var first Metrics
	for i := 0; i < 20; i++ {
		g := graph.Clique(10, 1)
		nw := NewNetwork(g, Config{Seed: 3, MaxRounds: 500})
		for u := 0; u < g.N(); u++ {
			p := NewProc(func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Exchange(p.Rand().Intn(p.Degree()), "x")
				}
			})
			p.HandleRequests(func(p *Proc, req Request) Payload { return "y" })
			nw.SetHandler(u, p)
		}
		res, err := nw.Run(nil)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if i == 0 {
			first = res.Metrics
		} else if res.Metrics != first {
			t.Fatalf("iteration %d metrics %+v differ from first %+v", i, res.Metrics, first)
		}
	}
}
