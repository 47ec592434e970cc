// Chaos layer: run push-pull through a deterministic fault plan — 10% drop,
// 5% duplication, latency jitter, a partition that heals, and a node that
// crashes and recovers — and watch it still complete. Then cut the dumbbell
// bridge permanently under RR Broadcast's fixed spanner schedule and watch it
// fail closed instead of hanging: the contrast the paper's conclusion draws
// between randomized gossip and deterministic schedules under faults.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"gossip"
)

func main() {
	// The paper's motivating topology: fast LAN cliques bridged by slow WAN
	// links in a ring. Partition the first clique from the rest for a window,
	// then heal; crash an interior node and bring it back with cleared state.
	g := gossip.RingOfCliques(8, 8, 4)
	var cliqueA, rest []gossip.NodeID
	for u := 0; u < g.N(); u++ {
		if u < 8 {
			cliqueA = append(cliqueA, gossip.NodeID(u))
		} else {
			rest = append(rest, gossip.NodeID(u))
		}
	}

	res, err := gossip.RunLive(g, gossip.LivePushPull(0), gossip.LiveOptions{
		Seed: 7,
		Tick: time.Millisecond,
		Faults: &gossip.LiveFaultConfig{
			Seed:        1234,
			Drop:        0.10,
			Duplicate:   0.05,
			JitterTicks: 2,
			Phases: []gossip.LiveFaultPhase{
				{From: 5, Until: 40, Cut: gossip.LiveCutBetween(g, cliqueA, rest)},
			},
		},
		Crashes: map[gossip.NodeID]gossip.LiveCrash{12: {At: 2, RecoverAt: 30}},
	})
	if err != nil {
		log.Fatal(err)
	}
	f := res.Faults
	fmt.Printf("push-pull under chaos: completed=%v informed=%d/%d in %d ticks\n",
		res.Completed, countDone(res.Done), g.N(), res.Metrics.Ticks)
	fmt.Printf("  fault ledger: injected-drops=%d partition-drops=%d dups=%d jittered=%d (total dropped %d)\n",
		f.InjectedDrops, f.PartitionDrops, f.InjectedDups, f.Jittered, f.Dropped())
	fmt.Printf("  node 12 crashed at tick 2, recovered at 30, re-informed=%v\n", res.Done[12])
	fmt.Printf("  informed fraction over time: %s\n", sparkline(f.InformedOverTime))

	// Same fault machinery, opposite outcome: RR Broadcast commits to a fixed
	// schedule through specific spanner edges, so an unhealed cut of the
	// dumbbell bridge leaves the far side dark. The run must not hang — the
	// schedule ends, every node halts, and the runtime returns
	// ErrLiveMaxTicks: fail closed, with the loss visible in the ledger.
	d := gossip.Dumbbell(4, 2)
	var left, right []gossip.NodeID
	for u := 0; u < 4; u++ {
		left = append(left, gossip.NodeID(u))
	}
	for u := 4; u < 8; u++ {
		right = append(right, gossip.NodeID(u))
	}
	opts := gossip.LiveOptions{
		Seed:     3,
		Tick:     time.Millisecond,
		MaxTicks: 4000,
		Faults: &gossip.LiveFaultConfig{
			Seed: 3,
			Phases: []gossip.LiveFaultPhase{
				{From: 4, Until: 0, Cut: gossip.LiveCutBetween(d, left, right)}, // never heals
			},
		},
	}
	proto, err := gossip.LiveRRBroadcast(d, 2, 0, opts)
	if err != nil {
		log.Fatal(err)
	}
	rr, err := gossip.RunLive(d, proto, opts)
	switch {
	case errors.Is(err, gossip.ErrLiveMaxTicks):
		fmt.Printf("\nRR broadcast across a cut bridge: completed=%v informed=%d/%d — failed closed at schedule end (tick %d of %d budget)\n",
			rr.Completed, countDone(rr.Done), d.N(), rr.Metrics.Ticks, opts.MaxTicks)
		fmt.Printf("  fault ledger: partition-drops=%d\n", rr.Faults.PartitionDrops)
	case err != nil:
		log.Fatal(err)
	default:
		fmt.Println("\nRR broadcast completed despite the cut bridge (unexpected)")
	}
}

func countDone(done []bool) int {
	c := 0
	for _, d := range done {
		if d {
			c++
		}
	}
	return c
}

// sparkline renders the informed-fraction trajectory as a compact bar chart.
func sparkline(xs []float64) string {
	const ramp = " ▁▂▃▄▅▆▇█"
	// Downsample to at most 40 columns so the line stays readable.
	step := 1
	if len(xs) > 40 {
		step = (len(xs) + 39) / 40
	}
	out := make([]rune, 0, 40)
	for i := 0; i < len(xs); i += step {
		v := xs[i]
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		out = append(out, []rune(ramp)[int(v*8)])
	}
	return string(out)
}
