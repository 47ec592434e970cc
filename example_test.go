package gossip_test

import (
	"fmt"

	"gossip"
)

// The basic workflow: build a latency-weighted network, analyze its
// connectivity, and broadcast.
func Example() {
	g := gossip.RingOfCliques(4, 6, 3)
	wc, err := gossip.WeightedConductance(g, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("critical latency ℓ* = %d\n", wc.EllStar)

	res, err := gossip.RunPushPull(g, 0, gossip.Options{Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed = %v\n", res.Completed)
	// Output:
	// critical latency ℓ* = 3
	// completed = true
}

// Building a custom topology edge by edge.
func ExampleNewGraph() {
	b := gossip.NewGraph(3)
	b.MustAddEdge(0, 1, 1)  // fast LAN link
	b.MustAddEdge(1, 2, 10) // slow WAN link
	g := b.Build()
	fmt.Println("diameter:", g.WeightedDiameter())
	// Output:
	// diameter: 11
}

// All-to-all dissemination with known latencies and unknown diameter: every
// node ends holding every rumor, and all nodes terminate in the same round
// (Lemma 18).
func ExampleRunGeneralEID() {
	g := gossip.Clique(8, 2)
	res, err := gossip.RunGeneralEID(g, gossip.Options{Seed: 3})
	if err != nil {
		panic(err)
	}
	same := true
	for _, r := range res.TerminatedAt {
		if r != res.TerminatedAt[0] {
			same = false
		}
	}
	fmt.Printf("completed=%v sameRoundTermination=%v\n", res.Completed, same)
	// Output:
	// completed=true sameRoundTermination=true
}

// Fault injection: push-pull completes among the survivors even when nodes
// crash mid-broadcast.
func ExampleOptions_crashes() {
	g := gossip.RingOfCliques(3, 6, 2)
	res, err := gossip.RunPushPull(g, 0, gossip.Options{
		Seed:    5,
		Crashes: map[gossip.NodeID]int{1: 3, 7: 3}, // two interior nodes die at round 3
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("survivors informed:", res.Completed)
	// Output:
	// survivors informed: true
}

// The lower-bound gadget of Theorem 6: constant weighted diameter, yet
// dissemination must pay Ω(Δ) to find the hidden fast edge.
func ExampleNewTheoremSixNetwork() {
	h, err := gossip.NewTheoremSixNetwork(40, 16, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("n=%d Δ=%d D=%d\n", h.G.N(), h.G.MaxDegree(), h.G.WeightedDiameter())
	// Output:
	// n=40 Δ=32 D=5
}
