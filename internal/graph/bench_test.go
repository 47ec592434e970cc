package graph

import (
	"fmt"
	"testing"
)

func BenchmarkDijkstra(b *testing.B) {
	g := RandomLatencies(GNP(512, 0.02, 1, true, 3), 1, 16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Distances(i % g.N())
	}
}

func BenchmarkBFS(b *testing.B) {
	g := GNP(512, 0.02, 1, true, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.HopDistances(i % g.N())
	}
}

func BenchmarkRingNetworkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewRingNetwork(64, 0.25, 8, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGadgetBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		target := RandomTarget(64, 0.1, uint64(i)+1)
		if _, err := NewGadget(64, target, true, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGraph keeps a generated graph live, so the build is not optimized
// away.
var benchGraph *Graph

// chungLuBenchSizes are ChungLu's benchmark sizes: sim-ladder's graph and
// the top of the Theorem 12 curve in n, which the O(n²) pair loop could
// not reach.
var chungLuBenchSizes = []int{20000, 1 << 20}

func BenchmarkChungLu(b *testing.B) {
	for _, n := range chungLuBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchGraph = ChungLu(n, 2.5, 8, 16, uint64(i)+1)
			}
		})
	}
}

func BenchmarkRandomLatencies(b *testing.B) {
	for _, n := range chungLuBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := ChungLu(n, 2.5, 8, 1, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchGraph = RandomLatencies(g, 1, 16, uint64(i)+1)
			}
		})
	}
}
