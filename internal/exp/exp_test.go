package exp

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "a", "bb")
	tb.Add(1, 2.5)
	tb.Add("xyz", 0.001)
	tb.Note = "n"
	s := tb.String()
	for _, want := range []string{"== demo ==", "a", "bb", "xyz", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 || s.Median != 2.5 || s.Min != 1 || s.Max != 4 || s.N != 4 {
		t.Errorf("Summarize = %+v", s)
	}
	odd := Summarize([]float64{3, 1, 2})
	if odd.Median != 2 {
		t.Errorf("odd median = %g", odd.Median)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summarize = %+v", z)
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = x² → slope 2.
	xs := []float64{1, 2, 4, 8}
	ys := []float64{1, 4, 16, 64}
	if got := LogLogSlope(xs, ys); math.Abs(got-2) > 1e-9 {
		t.Errorf("slope = %g, want 2", got)
	}
	if got := LogLogSlope([]float64{1}, []float64{1}); !math.IsNaN(got) {
		t.Errorf("degenerate slope = %g, want NaN", got)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("NOPE", ScaleQuick, 1); err == nil {
		t.Error("unknown experiment must fail")
	}
}

// TestAllExperimentsQuick executes every registered experiment at quick
// scale: the complete harness must run green end to end, each table with at
// least one row. It shares TestShapesQuick's parallel render of each ID.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running harness check")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) { parallelRender(t, id) })
	}
}

func TestTSV(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.Add(1, 2.5)
	var sb strings.Builder
	if err := tb.TSV(&sb); err != nil {
		t.Fatalf("TSV: %v", err)
	}
	want := "a\tb\n1\t2.500\n"
	if sb.String() != want {
		t.Errorf("TSV = %q, want %q", sb.String(), want)
	}
}

func TestMilestones(t *testing.T) {
	informed := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}
	got := milestones(informed, []float64{0.25, 0.5, 1.0})
	if got[0] != 4 || got[1] != 8 || got[2] != 18 {
		t.Errorf("milestones = %v", got)
	}
}

func TestInteriorCrashSetAvoidsBridges(t *testing.T) {
	crashes := interiorCrashSet(4, 6, 8, 3, 1)
	if len(crashes) != 8 {
		t.Fatalf("crash set size = %d, want 8", len(crashes))
	}
	for v, r := range crashes {
		if r != 3 {
			t.Errorf("node %d crash round %d, want 3", v, r)
		}
		off := v % 6
		if off == 0 || off == 5 {
			t.Errorf("node %d is a bridge endpoint; must not be crashed", v)
		}
	}
	if got := interiorCrashSet(3, 3, 5, 1, 1); len(got) != 0 {
		t.Errorf("s<4 should produce no crashes, got %v", got)
	}
}
