package main

import (
	"fmt"
	"math"
	"runtime"

	"gossip"
)

// simLadder runs the round simulator and the conductance analysis on four
// latency-ladder graphs and nothing of internal/live. Every repetition
// repeats the same computation, so its counts must repeat exactly.
var simLadder = workload{name: "sim-ladder", minReps: 3, rep: simLadderRep}

// simSeedsPerGraph is how many protocol seeds each graph is broadcast on.
const simSeedsPerGraph = 2

type ladderGraph struct {
	name string
	gen  func(seed uint64) *gossip.Graph
}

var ladderGraphs = []ladderGraph{
	{"ringcliques-64x64-L32", func(uint64) *gossip.Graph { return gossip.RingOfCliques(64, 64, 32) }},
	{"dumbbell-512-L64", func(uint64) *gossip.Graph { return gossip.Dumbbell(512, 64) }},
	{"chunglu-20000", func(s uint64) *gossip.Graph { return gossip.ChungLu(20000, 2.5, 8, 16, s) }},
	{"ringchords-50000", func(s uint64) *gossip.Graph { return gossip.RingChords(50000, 4, 16, s) }},
}

func simLadderRep(r *run, idx int, traced bool, rec *recorder) error {
	repSpan := r.tracer.begin("rep", idx, -1)
	cpu0 := cpuSeconds()
	if traced {
		if err := r.prof.start(idx); err != nil {
			return err
		}
	}
	// memDelta runs f and, on a traced repetition, returns the objects and
	// bytes it allocated.
	memDelta := func(f func()) (allocs, bytes float64) {
		if !traced {
			f()
			return 0, 0
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
	}

	graphs := make([]*gossip.Graph, len(ladderGraphs))
	var genS, edges float64
	for i, lg := range ladderGraphs {
		sp := r.tracer.begin("graph."+lg.name, idx, repSpan)
		graphs[i] = lg.gen(r.seeds.Graph + uint64(i))
		genS += r.tracer.end(sp)
		edges += float64(graphs[i].M())
	}

	var wcS, levels, wcAllocs float64
	var simS, rounds, msgs, nodeRounds, simAllocs, simBytes, t12 float64
	for i, g := range graphs {
		name := ladderGraphs[i].name
		var wc gossip.Conductance
		var err error
		sp := r.tracer.begin("gossip.WeightedConductance "+name, idx, repSpan)
		a, _ := memDelta(func() { wc, err = gossip.WeightedConductance(g, r.seeds.Cut) })
		wcS += r.tracer.end(sp)
		if err != nil {
			return fmt.Errorf("WeightedConductance %s: %w", name, err)
		}
		if wc.PhiStar <= 0 {
			return fmt.Errorf("WeightedConductance %s: φ* = %v", name, wc.PhiStar)
		}
		wcAllocs += a
		levels += float64(len(wc.Ladder))
		r.exact("φ*("+name+")", wc.PhiStar)
		r.exact("ℓ*("+name+")", float64(wc.EllStar))

		meanRounds := 0.0
		for s := 0; s < simSeedsPerGraph; s++ {
			var res gossip.BroadcastResult
			sp := r.tracer.begin("gossip.RunPushPull "+name, idx, repSpan)
			a, b := memDelta(func() { res, err = gossip.RunPushPull(g, 0, gossip.Options{Seed: r.seeds.Proto + uint64(s)}) })
			simS += r.tracer.end(sp)
			if err != nil {
				return fmt.Errorf("RunPushPull %s: %w", name, err)
			}
			simAllocs += a
			simBytes += b
			r.attempted += g.N()
			for _, at := range res.InformedAt {
				if at < 0 {
					r.failed++
				}
			}
			if !res.Completed {
				r.fail("RunPushPull %s seed %d did not complete", name, s)
			}
			r.exact(fmt.Sprintf("rounds(%s, seed %d)", name, s), float64(res.Metrics.Rounds))
			r.exact(fmt.Sprintf("messages(%s, seed %d)", name, s), float64(res.Metrics.Messages()))
			rounds += float64(res.Metrics.Rounds)
			msgs += float64(res.Metrics.Messages())
			nodeRounds += float64(g.N()) * float64(res.Metrics.Rounds)
			meanRounds += float64(res.Metrics.Rounds) / simSeedsPerGraph
		}
		// The Theorem 12 yardstick, as internal/exp's T12 driver computes it.
		driver := float64(wc.EllStar) / wc.PhiStar * math.Log(float64(g.N()))
		t12 = math.Max(t12, meanRounds/driver)
	}
	if traced {
		if err := r.prof.stop(); err != nil {
			return err
		}
	}
	repS := r.tracer.end(repSpan)
	cpuS := cpuSeconds() - cpu0
	if msgs == 0 || simS <= 0 {
		return fmt.Errorf("simulator sent no messages")
	}
	r.exact("t12_ratio", t12)

	// End to end: for this workload "informing every node" is simulating it.
	rec.add("setup_s", genS)
	rec.add("inform_wall_s", simS)
	rec.add("msgs_per_s", msgs/simS)
	rec.add("cpu_us_per_msg", cpuS*1e6/msgs)
	rec.add("fleet_wall_s", repS)

	rec.add("graph.gen_s", genS)
	rec.add("graph.edges", edges)
	rec.add("cut.wc_s", wcS)
	rec.add("cut.ladder_levels", levels)
	rec.add("analysis_wall_s", wcS)
	rec.add("sim.run_s", simS)
	rec.add("sim.rounds", rounds)
	rec.add("sim.msgs", msgs)
	rec.add("sim.ns_per_msg", simS*1e9/msgs)
	rec.add("sim_node_rounds_per_s", nodeRounds/simS)
	rec.add("t12_ratio", t12)
	if traced {
		runs := float64(len(graphs) * simSeedsPerGraph)
		rec.add("cut.allocs", wcAllocs)
		rec.add("sim.allocs_per_run", simAllocs/runs)
		rec.add("sim.alloc_bytes_per_run", simBytes/runs)
	}
	return nil
}
