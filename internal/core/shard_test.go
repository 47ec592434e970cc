package core

import (
	"fmt"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/par"
	"gossip/internal/sim"
)

// The protocols the round engine may shard declare themselves node-local;
// these fail to compile if one loses the mark.
var (
	_ = pushPullNode{NodeLocal: sim.NodeLocal{}}
	_ = floodNode{NodeLocal: sim.NodeLocal{}}
	_ = antiEntropyNode{NodeLocal: sim.NodeLocal{}}
)

// TestShardedProtocolsMatchOneShard runs every node-local protocol on
// graphs above the engine's shard floor twice, once with the par worker
// cap at 1 (one shard) and once at 2 or more, and compares everything the
// run reports byte for byte: metrics, completion, InformedAt, Informer and
// loads (push-pull), and the error. Runs stop at a round budget, so the
// comparison also covers state mid-broadcast. Under the race detector each
// graph and protocol runs one variant, in turn, rather than all three.
func TestShardedProtocolsMatchOneShard(t *testing.T) {
	const rounds = 20
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ringcliques", graph.RingOfCliques(16, 128, 4)},
		{"dumbbell", graph.Dumbbell(1024, 16)},
		{"chunglu", graph.ChungLu(2048, 2.5, 8, 3, 11)},
		{"ringchords", graph.RingChords(2048, 4, 16, 11)},
	}
	protocols := []struct {
		name string
		run  func(g *graph.Graph, cfg sim.Config) (any, error)
	}{
		{"pushpull", func(g *graph.Graph, cfg sim.Config) (any, error) { return PushPull(g, 0, ModePushPull, cfg) }},
		{"pushonly", func(g *graph.Graph, cfg sim.Config) (any, error) { return PushPull(g, 0, ModePushOnly, cfg) }},
		{"latencybiased", func(g *graph.Graph, cfg sim.Config) (any, error) { return PushPull(g, 0, ModeLatencyBiased, cfg) }},
		{"flood", func(g *graph.Graph, cfg sim.Config) (any, error) { return Flood(g, 0, cfg) }},
		{"antientropy", func(g *graph.Graph, cfg sim.Config) (any, error) { return PushPullAllToAll(g, cfg) }},
	}
	workers := max(2, par.MaxWorkers())
	for _, gc := range graphs {
		n := gc.g.N()
		crashes := map[graph.NodeID]int{5: 1, 100: 10, n / 2: 3, n - 1: 6}
		for i, pc := range protocols {
			// Three seeds, each under its own fault and delivery variant.
			variants := []struct {
				name string
				cfg  sim.Config
			}{
				{"plain", sim.Config{Seed: 1}},
				{"crashes", sim.Config{Seed: 2, Crashes: crashes}},
				{"crashes, full RTT", sim.Config{Seed: 3, Crashes: crashes, FullRTTDelivery: true}},
			}
			if raceEnabled {
				variants = variants[i%3 : i%3+1]
			}
			for _, v := range variants {
				cfg := v.cfg
				cfg.MaxRounds = rounds
				t.Run(gc.name+"/"+pc.name+"/"+v.name, func(t *testing.T) {
					run := func(w int) string {
						defer par.SetMaxWorkers(par.SetMaxWorkers(w))
						res, err := pc.run(gc.g, cfg)
						return fmt.Sprintf("%+v\n%v", res, err)
					}
					if one, many := run(1), run(workers); one != many {
						t.Errorf("%d workers differ from one:\n one: %.400s\nmany: %.400s", workers, one, many)
					}
				})
			}
		}
	}
}
