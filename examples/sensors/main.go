// Sensors: a wireless sensor grid where link latency grows with physical
// distance (diagonal neighbors are slower than adjacent ones). Every sensor
// holds a reading; the network computes a global aggregate by all-to-all
// dissemination with the latency-discovery algorithm of Section 4.2 — the
// sensors do NOT know their link latencies up front.
package main

import (
	"fmt"
	"log"

	"gossip"
)

const (
	rows = 5
	cols = 5
)

func main() {
	g := buildSensorGrid()
	fmt.Printf("sensor grid: %d nodes, %d links, weighted diameter %d\n",
		g.N(), g.M(), g.WeightedDiameter())

	// Deterministic pseudo-readings keyed by sensor ID.
	readings := make([]float64, g.N())
	for i := range readings {
		readings[i] = 20 + float64((i*37)%17)/2 // 20.0 .. 28.0 °C
	}

	// All-to-all dissemination with unknown latencies: sensors probe to
	// discover link speeds, then run the spanner algorithm until the
	// termination check proves everyone holds every rumor.
	res, err := gossip.RunDiscoverEID(g, gossip.Options{Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Completed {
		log.Fatal("dissemination incomplete")
	}
	fmt.Printf("all-to-all dissemination completed in %d rounds (budget doubled to %d)\n",
		res.Metrics.Rounds, res.FinalEstimate)
	fmt.Printf("all sensors terminated in the same round: %v\n", sameRound(res.TerminatedAt))

	// After completion every sensor holds every reading, so each can compute
	// the same aggregate locally.
	minV, maxV, sum := readings[0], readings[0], 0.0
	for _, r := range readings {
		if r < minV {
			minV = r
		}
		if r > maxV {
			maxV = r
		}
		sum += r
	}
	fmt.Printf("every sensor now agrees: min=%.1f°C max=%.1f°C mean=%.2f°C\n",
		minV, maxV, sum/float64(len(readings)))
	fmt.Printf("cost: %d messages, %d bytes\n", res.Metrics.Messages(), res.Metrics.Bytes)
}

// buildSensorGrid wires a rows×cols grid: rectilinear neighbors at latency
// 1–2 (radio quality varies), diagonal neighbors at latency 3.
func buildSensorGrid() *gossip.Graph {
	id := func(r, c int) int { return r*cols + c }
	b := gossip.NewGraph(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				lat := 1 + (r+c)%2
				b.MustAddEdge(id(r, c), id(r, c+1), lat)
			}
			if r+1 < rows {
				lat := 1 + (r*c)%2
				b.MustAddEdge(id(r, c), id(r+1, c), lat)
			}
			if r+1 < rows && c+1 < cols {
				b.MustAddEdge(id(r, c), id(r+1, c+1), 3)
			}
		}
	}
	return b.Build()
}

func sameRound(rounds []int) bool {
	for _, r := range rounds {
		if r != rounds[0] {
			return false
		}
	}
	return true
}
