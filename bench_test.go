// Benchmark harness: one testing.B benchmark per experiment in the
// DESIGN.md §4 index (regenerating each paper claim at quick scale), plus
// micro-benchmarks of the substrates. Rounds are reported as a custom
// metric so `go test -bench` output doubles as a results table.
package gossip

import (
	"fmt"
	"testing"
	"time"

	"gossip/internal/exp"
	"gossip/internal/graph"
	"gossip/internal/spanner"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := exp.Run(id, exp.ScaleQuick, uint64(i)+1)
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			b.Fatalf("experiment %s: empty table", id)
		}
	}
}

// Lower bounds (Section 3).

func BenchmarkExpL4Guessing(b *testing.B)              { benchExperiment(b, "L4") }
func BenchmarkExpL5GuessingRandomP(b *testing.B)       { benchExperiment(b, "L5") }
func BenchmarkExpT6DeltaLowerBound(b *testing.B)       { benchExperiment(b, "T6") }
func BenchmarkExpT7ConductanceLowerBound(b *testing.B) { benchExperiment(b, "T7") }
func BenchmarkExpT8TradeOff(b *testing.B)              { benchExperiment(b, "T8") }
func BenchmarkExpL9Conductance(b *testing.B)           { benchExperiment(b, "L9") }

// Upper bounds (Sections 4–6, Appendix E).

func BenchmarkExpT12PushPull(b *testing.B)      { benchExperiment(b, "T12") }
func BenchmarkExpT14Spanner(b *testing.B)       { benchExperiment(b, "T14") }
func BenchmarkExpL15RRBroadcast(b *testing.B)   { benchExperiment(b, "L15") }
func BenchmarkExpL17EID(b *testing.B)           { benchExperiment(b, "L17") }
func BenchmarkExpT19GeneralEID(b *testing.B)    { benchExperiment(b, "T19") }
func BenchmarkExpT20Unified(b *testing.B)       { benchExperiment(b, "T20") }
func BenchmarkExpL24PathDiscovery(b *testing.B) { benchExperiment(b, "L24") }
func BenchmarkExpDiscovery(b *testing.B)        { benchExperiment(b, "DISC") }

// Ablations (DESIGN.md §5).

func BenchmarkAblationSnapshot(b *testing.B)   { benchExperiment(b, "ABL-DELIVERY") }
func BenchmarkAblationPushOnly(b *testing.B)   { benchExperiment(b, "ABL-PUSHONLY") }
func BenchmarkAblationSpannerK(b *testing.B)   { benchExperiment(b, "ABL-SPANNERK") }
func BenchmarkAblationTree(b *testing.B)       { benchExperiment(b, "ABL-TREE") }
func BenchmarkAblationLocalBcast(b *testing.B) { benchExperiment(b, "ABL-LB") }
func BenchmarkAblationBias(b *testing.B)       { benchExperiment(b, "ABL-BIAS") }

// Extensions (the conclusion's open issues, measured).

func BenchmarkExpFaultTolerance(b *testing.B)    { benchExperiment(b, "FAULT") }
func BenchmarkExpMessageComplexity(b *testing.B) { benchExperiment(b, "MSG") }
func BenchmarkExpL3Reduction(b *testing.B)       { benchExperiment(b, "L3") }
func BenchmarkExpCongestion(b *testing.B)        { benchExperiment(b, "CONG") }
func BenchmarkExpInformedCurve(b *testing.B)     { benchExperiment(b, "CURVE") }
func BenchmarkExpLoadBalance(b *testing.B)       { benchExperiment(b, "LOAD") }
func BenchmarkExpFigure1(b *testing.B)           { benchExperiment(b, "F1") }
func BenchmarkExpFigure2(b *testing.B)           { benchExperiment(b, "F2") }
func BenchmarkExpSocial(b *testing.B)            { benchExperiment(b, "SOCIAL") }
func BenchmarkExpChurn(b *testing.B)             { benchExperiment(b, "CHURN") }
func BenchmarkExpChurnLoss(b *testing.B)         { benchExperiment(b, "CHURN-LOSS") }

// ---- protocol micro-benchmarks on fixed topologies ----

func benchPushPull(b *testing.B, g *Graph) {
	b.Helper()
	totalRounds := 0
	for i := 0; i < b.N; i++ {
		res, err := RunPushPull(g, 0, Options{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += res.Metrics.Rounds
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/op")
}

func BenchmarkPushPullClique256(b *testing.B) { benchPushPull(b, Clique(256, 1)) }

func BenchmarkPushPullRingOfCliques(b *testing.B) { benchPushPull(b, RingOfCliques(16, 16, 8)) }

func BenchmarkPushPullDumbbell(b *testing.B) { benchPushPull(b, Dumbbell(64, 32)) }

func BenchmarkFloodGrid(b *testing.B) {
	g := graph.Grid(16, 16, 3)
	for i := 0; i < b.N; i++ {
		if _, err := RunFlood(g, 0, Options{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalBroadcastDTG(b *testing.B) {
	g := RingOfCliques(4, 8, 4)
	for i := 0; i < b.N; i++ {
		res, err := RunLocalBroadcast(g, 4, Options{Seed: uint64(i) + 1})
		if err != nil || !res.Completed {
			b.Fatalf("err=%v completed=%v", err, res.Completed)
		}
	}
}

func BenchmarkEIDKnownD(b *testing.B) {
	g := RingOfCliques(3, 5, 2)
	d := g.WeightedDiameter()
	for i := 0; i < b.N; i++ {
		res, err := RunEID(g, d, Options{Seed: uint64(i) + 1})
		if err != nil || !res.Completed {
			b.Fatalf("err=%v completed=%v", err, res.Completed)
		}
	}
}

func BenchmarkGeneralEID(b *testing.B) {
	g := Clique(12, 1)
	for i := 0; i < b.N; i++ {
		res, err := RunGeneralEID(g, Options{Seed: uint64(i) + 1})
		if err != nil || !res.Completed {
			b.Fatalf("err=%v completed=%v", err, res.Completed)
		}
	}
}

func BenchmarkPathDiscovery(b *testing.B) {
	g := Clique(10, 1)
	for i := 0; i < b.N; i++ {
		res, err := RunPathDiscovery(g, Options{Seed: uint64(i) + 1})
		if err != nil || !res.Completed {
			b.Fatalf("err=%v completed=%v", err, res.Completed)
		}
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkSpannerBuild(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GNP(n, 0.2, 1, true, 5)
			for i := 0; i < b.N; i++ {
				if _, err := spanner.Build(g, 4, n, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWeightedConductanceHeuristic(b *testing.B) {
	g := RingOfCliques(8, 16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WeightedConductance(g, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeightedDiameter(b *testing.B) {
	g := RingOfCliques(8, 16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.WeightedDiameter()
	}
}

// BenchmarkLiveInProc measures a full live push-pull broadcast over the
// in-process channel transport: sharded event-loop wall-clock execution
// with a short tick, reporting protocol ticks alongside ns/op. The wall
// time is dominated by tick duration by design — the interesting outputs
// are the tick and message counts staying flat as scheduling jitter varies.
func BenchmarkLiveInProc(b *testing.B) {
	g := RingOfCliques(4, 8, 4) // 32 nodes
	b.ResetTimer()
	var ticks, msgs int
	for i := 0; i < b.N; i++ {
		res, err := RunLive(g, LivePushPull(0), LiveOptions{
			Seed: uint64(i) + 1,
			Tick: 200 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		ticks += res.Metrics.Ticks
		msgs += res.Metrics.Messages()
	}
	b.ReportMetric(float64(ticks)/float64(b.N), "ticks/op")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}
