package core

import (
	"math"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

func TestPushPullClique(t *testing.T) {
	g := graph.Clique(64, 1)
	res, err := PushPull(g, 0, ModePushPull, sim.Config{Seed: 1})
	if err != nil {
		t.Fatalf("PushPull: %v", err)
	}
	if !res.Completed {
		t.Fatal("broadcast did not complete")
	}
	// O(log n) on a clique: generous constant.
	if max := 8 * int(math.Log2(64)); res.Metrics.Rounds > max {
		t.Errorf("clique rounds = %d, want <= %d", res.Metrics.Rounds, max)
	}
	for v, r := range res.InformedAt {
		if r < 0 {
			t.Errorf("node %d never informed", v)
		}
	}
}

func TestPushPullPathRespectssLatency(t *testing.T) {
	// A 2-node graph with a single latency-10 edge: the exchange takes
	// exactly 10 rounds, so the rumor arrives at round ⌈10/2⌉ = 5 at the
	// earliest (one-way) and the run completes by round 10.
	gb := graph.New(2)
	gb.MustAddEdge(0, 1, 10)
	g := gb.Build()
	res, err := PushPull(g, 0, ModePushPull, sim.Config{Seed: 1})
	if err != nil {
		t.Fatalf("PushPull: %v", err)
	}
	if res.Metrics.Rounds < 5 {
		t.Errorf("rounds = %d; information traveled faster than latency/2", res.Metrics.Rounds)
	}
}

func TestPushPullSeedsDeterministic(t *testing.T) {
	g := graph.RingOfCliques(8, 8, 4)
	a, err := PushPull(g, 0, ModePushPull, sim.Config{Seed: 42})
	if err != nil {
		t.Fatalf("run a: %v", err)
	}
	b, err := PushPull(g, 0, ModePushPull, sim.Config{Seed: 42})
	if err != nil {
		t.Fatalf("run b: %v", err)
	}
	if a.Metrics != b.Metrics {
		t.Errorf("same seed gave different metrics: %+v vs %+v", a.Metrics, b.Metrics)
	}
	c, err := PushPull(g, 0, ModePushPull, sim.Config{Seed: 43})
	if err != nil {
		t.Fatalf("run c: %v", err)
	}
	if a.Metrics.Rounds == c.Metrics.Rounds && a.Metrics.Requests == c.Metrics.Requests {
		t.Log("different seeds coincided (possible but unlikely); not failing")
	}
}

func TestPushOnlyStarIsSlow(t *testing.T) {
	// Footnote 2: without pull, a star broadcast from a leaf needs the
	// center to push to each leaf individually — Θ(n) time — whereas
	// push-pull finishes in O(log n) because leaves pull from the center.
	const n = 128
	g := graph.Star(n, 1)
	pp, err := PushPull(g, 1, ModePushPull, sim.Config{Seed: 7})
	if err != nil {
		t.Fatalf("push-pull: %v", err)
	}
	po, err := PushPull(g, 1, ModePushOnly, sim.Config{Seed: 7, MaxRounds: 100 * n})
	if err != nil {
		t.Fatalf("push-only: %v", err)
	}
	if po.Metrics.Rounds < 4*pp.Metrics.Rounds {
		t.Errorf("push-only (%d rounds) should be much slower than push-pull (%d rounds)",
			po.Metrics.Rounds, pp.Metrics.Rounds)
	}
	if pp.Metrics.Rounds > 40 {
		t.Errorf("push-pull on star took %d rounds, want O(log n)", pp.Metrics.Rounds)
	}
}

func TestFloodPath(t *testing.T) {
	g := graph.Path(32, 3)
	res, err := Flood(g, 0, sim.Config{Seed: 1})
	if err != nil {
		t.Fatalf("Flood: %v", err)
	}
	// The rumor must traverse 31 edges of latency 3; one-way delivery takes
	// ⌈3/2⌉ = 2 rounds per hop.
	if res.Metrics.Rounds < 31*2 {
		t.Errorf("flood rounds = %d, want >= %d (latency floor)", res.Metrics.Rounds, 31*2)
	}
	if res.Metrics.Rounds > 31*3+40 {
		t.Errorf("flood rounds = %d, want <= %d", res.Metrics.Rounds, 31*3+40)
	}
}

func TestFloodInformsEveryoneOnGadget(t *testing.T) {
	gd, err := graph.NewGadget(8, graph.SingletonTarget(8, 3), false, 50)
	if err != nil {
		t.Fatalf("gadget: %v", err)
	}
	res, err := Flood(gd.G, 0, sim.Config{Seed: 5})
	if err != nil {
		t.Fatalf("Flood: %v", err)
	}
	for v, r := range res.InformedAt {
		if r < 0 {
			t.Errorf("node %d never informed", v)
		}
	}
}

// TestInfectionTree verifies the informer relation forms a tree rooted at
// the source: every informed non-source node has an informer that is a
// graph neighbor informed no later than itself, and following informers
// reaches the source without cycles.
func TestInfectionTree(t *testing.T) {
	g := graph.RingOfCliques(4, 6, 3)
	res, err := PushPull(g, 0, ModePushPull, sim.Config{Seed: 17})
	if err != nil || !res.Completed {
		t.Fatalf("PushPull: %v", err)
	}
	for v := 0; v < g.N(); v++ {
		if v == 0 {
			if res.Informer[v] != -1 {
				t.Errorf("source informer = %d, want -1", res.Informer[v])
			}
			continue
		}
		p := res.Informer[v]
		if p < 0 {
			t.Fatalf("node %d informed but has no informer", v)
		}
		if !g.HasEdge(v, p) {
			t.Errorf("informer %d of %d is not a neighbor", p, v)
		}
		if res.InformedAt[p] > res.InformedAt[v] {
			t.Errorf("informer %d (round %d) informed later than %d (round %d)",
				p, res.InformedAt[p], v, res.InformedAt[v])
		}
		// Walk to the root; bounded steps guard against cycles.
		cur := v
		for steps := 0; cur != 0; steps++ {
			if steps > g.N() {
				t.Fatalf("informer chain from %d does not reach the source", v)
			}
			cur = res.Informer[cur]
			if cur < 0 {
				t.Fatalf("informer chain from %d hit an uninformed node", v)
			}
		}
	}
}
