package cut

import (
	"sync"
	"testing"

	"gossip/internal/graph"
)

// exactBenchGraphs are the two 24-node (n = MaxExactN) graphs of E-T20's
// quick scale, the largest exact ladders the experiments evaluate.
func exactBenchGraphs() []equivCase {
	return []equivCase{
		{"clique24", graph.Clique(24, 1)},
		{"ringcliques4x6", graph.RingOfCliques(4, 6, 2)},
	}
}

// BenchmarkExactLadder times the whole exact φ_ℓ ladder in one Gray-code
// pass (docs/PERFORMANCE.md, "The conductance engine").
func BenchmarkExactLadder(b *testing.B) {
	for _, tc := range exactBenchGraphs() {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := LadderCertificates(tc.g, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactLadderRef runs the frozen per-rung enumeration over the same
// ladders; one iteration takes seconds, so run it with -benchtime=1x.
func BenchmarkExactLadderRef(b *testing.B) {
	for _, tc := range exactBenchGraphs() {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, ell := range tc.g.Latencies() {
					if _, err := refPhiExactCut(tc.g, ell); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkPhiHeuristic256(b *testing.B) {
	g := graph.RingOfCliques(16, 16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PhiHeuristic(g, 8, uint64(i)+1)
	}
}

func BenchmarkPhiRefined256(b *testing.B) {
	g := graph.RingOfCliques(16, 16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PhiRefined(g, 8, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// withBackbone returns g with the latency of a BFS spanning tree's edges
// lowered to 1, so every G_ℓ is connected and the full φ_ℓ ladder is live —
// the workload the ladder engine exists for (a level with disconnected G_ℓ
// short-circuits to φ_ℓ = 0 in both implementations). This models overlay
// networks with a fast core and heterogeneous long links. The copy adds the
// edges in g's edge order, so edge IDs and adjacency order are g's.
func withBackbone(g *graph.Graph) *graph.Graph {
	tree := make([]bool, g.M())
	seen := make([]bool, g.N())
	seen[0] = true
	queue := []graph.NodeID{0}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, he := range g.Neighbors(u) {
			if !seen[he.To] {
				seen[he.To] = true
				tree[he.ID] = true
				queue = append(queue, int(he.To))
			}
		}
	}
	outb := graph.New(g.N())
	for id, e := range g.Edges() {
		lat := e.Latency
		if tree[id] {
			lat = 1
		}
		outb.MustAddEdge(e.U, e.V, lat)
	}
	out := outb.Build()
	return out
}

// Ladder benchmark instances are built once and shared: generation must not
// pollute the timings.
var (
	benchOnce    sync.Once
	benchChungLu *graph.Graph // n = 20k power-law graph, 8 latency classes
	benchRing    *graph.Graph // ~1k ring of cliques, 6 latency classes
)

func benchGraphs() (*graph.Graph, *graph.Graph) {
	benchOnce.Do(func() {
		benchChungLu = withBackbone(graph.RandomLatencies(graph.ChungLu(20000, 2.5, 8, 1, 1), 1, 8, 1))
		benchRing = withBackbone(graph.RandomLatencies(graph.RingOfCliques(16, 64, 6), 1, 6, 1))
	})
	return benchChungLu, benchRing
}

// BenchmarkWeightedConductanceChungLu20k is the headline ladder benchmark:
// the CSR engine on a 20k-node Chung-Lu graph. Compare against the *Ref
// variant below for the engine-vs-frozen-pipeline speedup
// (docs/PERFORMANCE.md, "The conductance engine").
func BenchmarkWeightedConductanceChungLu20k(b *testing.B) {
	g, _ := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WeightedConductance(g, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightedConductanceChungLu20kRef runs the frozen pre-CSR per-level
// pipeline on the same instance.
func BenchmarkWeightedConductanceChungLu20kRef(b *testing.B) {
	g, _ := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WeightedConductanceRef(g, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightedConductanceRing1k is the quick-signal ladder pair for CI:
// same comparison on a ~1k-node ring of cliques.
func BenchmarkWeightedConductanceRing1k(b *testing.B) {
	_, g := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WeightedConductance(g, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeightedConductanceRing1kRef(b *testing.B) {
	_, g := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WeightedConductanceRef(g, 1); err != nil {
			b.Fatal(err)
		}
	}
}
