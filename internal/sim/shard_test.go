package sim

import (
	"fmt"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/par"
	"gossip/internal/rng"
)

// hashHandler is a node-local handler whose state is a running hash of
// every callback it sees, in order, with everything the callback carries.
// Every round it calls a random neighbor with its hash as the payload, so a
// change in any node's event order spreads into every hash it reaches.
type hashHandler struct {
	NodeLocal
	sum uint64
}

func (h *hashHandler) Start(ctx *Context) {}

func (h *hashHandler) Tick(ctx *Context) {
	if err := ctx.Initiate(ctx.Rand().Intn(ctx.Degree()), h.sum); err != nil {
		panic(err)
	}
}

func (h *hashHandler) OnRequest(ctx *Context, req Request) Payload {
	h.sum = rng.Hash(h.sum, 1, uint64(ctx.Round()), uint64(req.From), uint64(req.EdgeIndex), req.Payload.(uint64))
	return h.sum
}

func (h *hashHandler) OnResponse(ctx *Context, resp Response) {
	h.sum = rng.Hash(h.sum, 2, uint64(ctx.Round()), uint64(resp.From), uint64(resp.EdgeIndex),
		uint64(resp.InitiatedAt), uint64(resp.Latency), resp.Payload.(uint64))
}

func (h *hashHandler) Done() bool { return false }

// unmarkedHandler is hashHandler without the NodeLocal mark.
type unmarkedHandler struct{ h hashHandler }

func (u *unmarkedHandler) Start(ctx *Context) { u.h.Start(ctx) }
func (u *unmarkedHandler) Tick(ctx *Context)  { u.h.Tick(ctx) }
func (u *unmarkedHandler) OnRequest(ctx *Context, req Request) Payload {
	return u.h.OnRequest(ctx, req)
}
func (u *unmarkedHandler) OnResponse(ctx *Context, resp Response) { u.h.OnResponse(ctx, resp) }
func (u *unmarkedHandler) Done() bool                             { return false }

// shardRun is what a run leaves behind, for byte-for-byte comparison.
type shardRun struct {
	shards int
	out    string
}

// runSharded runs handlers made by mk for rounds rounds with the par
// worker cap set to workers.
func runSharded(t *testing.T, g *graph.Graph, cfg Config, workers, rounds int, mk func(u int) (Handler, func() uint64)) shardRun {
	t.Helper()
	defer par.SetMaxWorkers(par.SetMaxWorkers(workers))
	nw := NewNetwork(g, cfg)
	sums := make([]func() uint64, g.N())
	for u := 0; u < g.N(); u++ {
		var h Handler
		h, sums[u] = mk(u)
		nw.SetHandler(u, h)
	}
	res, err := nw.Run(func(nw *Network) bool { return nw.Round() >= rounds })
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]uint64, g.N())
	for u := range hashes {
		hashes[u] = sums[u]()
	}
	return shardRun{
		shards: len(nw.shards),
		out:    fmt.Sprint(res, nw.Metrics(), nw.Loads(), hashes),
	}
}

func hashNodes(int) (Handler, func() uint64) {
	h := &hashHandler{}
	return h, func() uint64 { return h.sum }
}

// TestShardedMatchesOneShard runs the same node-local protocol on one shard
// and on several: every node's full event history (folded into its hash),
// the metrics and the loads must match exactly. The graphs cover zero-delay
// responses across shards (latency 1, FullRTTDelivery), only inside them
// (latency-1 clique edges), or nowhere (latency ≥ 2), and every split of a
// latency into request and response delay.
func TestShardedMatchesOneShard(t *testing.T) {
	torus := func(lat int) *graph.Graph { return graph.Torus(32, 64, lat) }
	cases := []struct {
		name    string
		g       *graph.Graph
		workers int
	}{
		{"torus ℓ=1", torus(1), 2},
		{"torus ℓ=3", torus(3), 2},
		{"torus ℓ∈[1,6]", graph.RandomLatencies(torus(1), 1, 6, 7), 2},
		{"torus ℓ∈[2,7]", graph.RandomLatencies(torus(1), 2, 7, 7), 2},
		{"cliques ℓ=1 inside", graph.RingOfCliques(32, 64, 5), 2},
		{"torus ℓ∈[2,7] three shards", graph.RandomLatencies(graph.Torus(48, 64, 1), 2, 7, 9), 3},
	}
	for _, tc := range cases {
		crashes := map[graph.NodeID]int{3: 4, tc.g.N() / 2: 9, tc.g.N() - 1: 2}
		for _, v := range []struct {
			name string
			cfg  Config
		}{
			{"plain", Config{Seed: 5}},
			{"crashes", Config{Seed: 6, Crashes: crashes}},
			{"full RTT", Config{Seed: 7, FullRTTDelivery: true}},
		} {
			t.Run(tc.name+"/"+v.name, func(t *testing.T) {
				one := runSharded(t, tc.g, v.cfg, 1, 30, hashNodes)
				many := runSharded(t, tc.g, v.cfg, tc.workers, 30, hashNodes)
				if one.shards != 1 || many.shards != tc.workers {
					t.Fatalf("ran on %d and %d shards, want 1 and %d", one.shards, many.shards, tc.workers)
				}
				if one.out != many.out {
					t.Errorf("sharded run differs from one shard:\n one: %.300s\nmany: %.300s", one.out, many.out)
				}
			})
		}
	}
}

// TestOneShardFallbacks: a traced or congestion-bounded run, a coroutine
// protocol and a handler without the NodeLocal mark all run on one shard
// even when the worker cap allows more, and give the one-shard result.
func TestOneShardFallbacks(t *testing.T) {
	g := graph.Torus(32, 64, 3)
	var traced int
	procNodes := func(int) (Handler, func() uint64) {
		var sum uint64
		p := NewProc(func(p *Proc) {
			for {
				p.Send(p.Rand().Intn(p.Degree()), sum)
				p.Yield()
			}
		}).HandleRequests(func(p *Proc, req Request) Payload {
			sum = rng.Hash(sum, uint64(p.Round()), uint64(req.From), req.Payload.(uint64))
			return sum
		})
		return p, func() uint64 { return sum }
	}
	unmarked := func(int) (Handler, func() uint64) {
		u := &unmarkedHandler{}
		return u, func() uint64 { return u.h.sum }
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		mk   func(int) (Handler, func() uint64)
	}{
		{"trace", Config{Seed: 1, Trace: func(TraceEvent) { traced++ }}, hashNodes},
		{"bounded responses", Config{Seed: 1, MaxResponsesPerRound: 1}, hashNodes},
		{"proc", Config{Seed: 1}, procNodes},
		{"unmarked handler", Config{Seed: 1}, unmarked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one := runSharded(t, g, tc.cfg, 1, 20, tc.mk)
			two := runSharded(t, g, tc.cfg, 2, 20, tc.mk)
			if two.shards != 1 {
				t.Fatalf("ran on %d shards, want 1", two.shards)
			}
			if one.out != two.out {
				t.Errorf("runs differ:\n one: %.300s\n two: %.300s", one.out, two.out)
			}
		})
	}
	if traced == 0 {
		t.Error("the traced runs recorded nothing")
	}
}

// TestShardCuts: the cut points split the nodes into contiguous ranges in
// node order, and owner inverts them.
func TestShardCuts(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(3))
	g := graph.ChungLu(4000, 2.5, 8, 2, 3)
	nw := NewNetwork(g, Config{Seed: 1})
	defer nw.Close()
	for u := 0; u < g.N(); u++ {
		nw.SetHandler(u, &hashHandler{})
	}
	nw.start()
	if len(nw.shards) != 3 {
		t.Fatalf("%d shards, want 3", len(nw.shards))
	}
	next := 0
	for k, sh := range nw.shards {
		if sh.id != k || sh.lo != next || sh.hi <= sh.lo {
			t.Fatalf("shard %d covers [%d,%d), want a non-empty range from %d", k, sh.lo, sh.hi, next)
		}
		next = sh.hi
		for u := sh.lo; u < sh.hi; u++ {
			if got := nw.owner(int32(u)); got != k || nw.nodes[u].env.sh != sh {
				t.Fatalf("node %d: owner %d, want %d", u, got, k)
			}
		}
	}
	if next != g.N() {
		t.Fatalf("shards end at %d, want %d", next, g.N())
	}
}

// TestShardedInsideMap: sharded networks nested in par.Map cells run at
// once, their barriers see the process as crowded and park, and each still
// gives the one-shard result. Closing them leaves no shard counted.
func TestShardedInsideMap(t *testing.T) {
	g := graph.RandomLatencies(graph.Torus(32, 64, 1), 1, 6, 3)
	cfg := Config{Seed: 4}
	one := runSharded(t, g, cfg, 1, 30, hashNodes)
	defer par.SetMaxWorkers(par.SetMaxWorkers(2))
	if crowded(2) {
		t.Fatal("crowded before any network or Map ran")
	}
	type cell struct {
		out               string
		shards            int
		crowdedBeforeStop bool
	}
	cells, err := par.Map(2, func(int) (cell, error) {
		nw := NewNetwork(g, cfg)
		sums := make([]func() uint64, g.N())
		for u := 0; u < g.N(); u++ {
			var h Handler
			h, sums[u] = hashNodes(u)
			nw.SetHandler(u, h)
		}
		var c cell
		res, err := nw.Run(func(nw *Network) bool {
			c.crowdedBeforeStop = crowded(2)
			return nw.Round() >= 30
		})
		hashes := make([]uint64, g.N())
		for u := range hashes {
			hashes[u] = sums[u]()
		}
		c.out, c.shards = fmt.Sprint(res, nw.Metrics(), nw.Loads(), hashes), len(nw.shards)
		return c, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if c.shards != 2 {
			t.Errorf("cell %d ran on %d shards, want 2", i, c.shards)
		}
		if !c.crowdedBeforeStop {
			t.Errorf("cell %d: a sharded network inside par.Map was not crowded", i)
		}
		if c.out != one.out {
			t.Errorf("cell %d differs from one shard:\n one: %.300s\ncell: %.300s", i, one.out, c.out)
		}
	}
	if n := liveShards.Load(); n != 0 {
		t.Errorf("%d shards still counted after every network closed", n)
	}
}

// startPanicHandler panics in Start on the last node.
type startPanicHandler struct {
	hashHandler
	last bool
}

func (h *startPanicHandler) Start(ctx *Context) {
	if h.last {
		panic("start failed")
	}
}

// TestStartPanicStopsShards: a handler whose Start panics after the split
// still has Run close the network, so its shard workers stop.
func TestStartPanicStopsShards(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(2))
	g := graph.Torus(32, 64, 3)
	nw := NewNetwork(g, Config{Seed: 1})
	for u := 0; u < g.N(); u++ {
		nw.SetHandler(u, &startPanicHandler{last: u == g.N()-1})
	}
	func() {
		defer func() {
			if r := recover(); r != "start failed" {
				t.Fatalf("recovered %v, want the Start panic", r)
			}
		}()
		nw.Run(nil)
	}()
	if len(nw.shards) != 2 {
		t.Fatalf("%d shards, want 2", len(nw.shards))
	}
	if !nw.closed || liveShards.Load() != 0 {
		t.Errorf("closed = %v with %d shards counted, want a closed network and none", nw.closed, liveShards.Load())
	}
}
