package sim

import (
	"runtime"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/par"
)

// BenchmarkEngineRounds measures raw engine throughput: n state-machine
// nodes each initiating every round.
func BenchmarkEngineRounds(b *testing.B) {
	g := graph.Clique(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := NewNetwork(g, Config{Seed: uint64(i) + 1, MaxRounds: 100})
		for u := 0; u < g.N(); u++ {
			nw.SetHandler(u, &benchHandler{})
		}
		if _, err := nw.Run(func(nw *Network) bool { return nw.Round() >= 50 }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPushPullRingOfCliques broadcasts one bit by push-pull over
// RingOfCliques(64, 64, 32) (n = 4,096, ℓ = 32 bridges) until every node
// has it. The graph is above the shard floor and the par worker cap
// follows GOMAXPROCS, so -cpu 1,2 shows how the engine alone scales from
// one shard to two.
func BenchmarkPushPullRingOfCliques(b *testing.B) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(runtime.GOMAXPROCS(0)))
	g := graph.RingOfCliques(64, 64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := NewNetwork(g, Config{Seed: 1})
		nodes := make([]bitHandler, g.N())
		nodes[0].informed = true
		for u := range nodes {
			nw.SetHandler(u, &nodes[u])
		}
		res, err := nw.Run(func(*Network) bool {
			for u := range nodes {
				if !nodes[u].informed {
					return false
				}
			}
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.Rounds), "rounds/op")
	}
}

// bitHandler is push-pull on one bit.
type bitHandler struct {
	NodeLocal
	informed bool
}

func (h *bitHandler) Start(ctx *Context) {}
func (h *bitHandler) Tick(ctx *Context) {
	_ = ctx.Initiate(ctx.Rand().Intn(ctx.Degree()), h.informed)
}
func (h *bitHandler) OnRequest(ctx *Context, req Request) Payload {
	h.informed = h.informed || req.Payload.(bool)
	return h.informed
}
func (h *bitHandler) OnResponse(ctx *Context, resp Response) {
	h.informed = h.informed || resp.Payload.(bool)
}
func (h *bitHandler) Done() bool { return false }

type benchHandler struct{ NodeLocal }

func (h *benchHandler) Start(ctx *Context) {}
func (h *benchHandler) Tick(ctx *Context) {
	_ = ctx.Initiate(ctx.Rand().Intn(ctx.Degree()), nil)
}
func (h *benchHandler) OnRequest(ctx *Context, req Request) Payload { return nil }
func (h *benchHandler) OnResponse(ctx *Context, resp Response)      {}
func (h *benchHandler) Done() bool                                  { return false }

// BenchmarkProcRounds measures the coroutine layer's overhead relative to
// the state-machine path.
func BenchmarkProcRounds(b *testing.B) {
	g := graph.Clique(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := NewNetwork(g, Config{Seed: uint64(i) + 1, MaxRounds: 100})
		for u := 0; u < g.N(); u++ {
			p := NewProc(func(p *Proc) {
				for p.Round() < 50 {
					p.Send(p.Rand().Intn(p.Degree()), nil)
					p.Yield()
				}
			})
			nw.SetHandler(u, p)
		}
		if _, err := nw.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}
