package exp

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the TestShapesQuick goldens under testdata/shapes_quick")

// TestShapesQuick renders every registered experiment once at quick scale
// with at least two workers: it asserts the paper-claim shape where one is
// registered (the reproduction as a regression test) and pins the table byte
// for byte against its golden in testdata/shapes_quick, so a change to the
// simulator, a protocol or a generator that moves any figure shows here;
// `go test -run TestShapesQuick -update ./internal/exp` rewrites the goldens.
// TestParallelMatchesSequential compares a one-worker render with the same
// goldens, so together they prove a parallel run equals a sequential one.
func TestShapesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running shape checks")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tb := parallelRender(t, id)
			if err := VerifyShape(id, tb); err != nil {
				t.Errorf("%v\n%s", err, tb)
			}
			checkGolden(t, goldenPath(id), goldenText(tb))
		})
	}
}

// parallelRenders caches each experiment's quick render under at least two
// workers, so TestAllExperimentsQuick and TestShapesQuick check one table.
var parallelRenders = map[string]*Table{}

func parallelRender(t *testing.T, id string) *Table {
	t.Helper()
	if tb, ok := parallelRenders[id]; ok {
		return tb
	}
	tb := runQuick(t, id, max(runtime.GOMAXPROCS(0), 2))
	parallelRenders[id] = tb
	return tb
}

// runQuick runs experiment id at quick scale under the given worker cap; the
// run must succeed and produce at least one row.
func runQuick(t *testing.T, id string, workers int) *Table {
	t.Helper()
	defer SetMaxWorkers(SetMaxWorkers(workers))
	tb, err := Run(id, ScaleQuick, 1)
	if err != nil {
		t.Fatalf("experiment %s: %v", id, err)
	}
	if len(tb.Rows) == 0 {
		t.Fatalf("experiment %s produced no rows", id)
	}
	return tb
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "shapes_quick", id+".golden")
}

// timingRe matches a column header or note that reports wall-clock time,
// which differs from run to run and is kept out of the goldens.
var timingRe = regexp.MustCompile(`(?i)\bwall|\b(sec|ms|us|ns)\b`)

// goldenText renders tb without its timing columns and timing note.
func goldenText(tb *Table) string {
	out := &Table{Title: tb.Title}
	var keep []int
	for i, c := range tb.Cols {
		if !timingRe.MatchString(c) {
			keep = append(keep, i)
			out.Cols = append(out.Cols, c)
		}
	}
	for _, row := range tb.Rows {
		r := make([]string, 0, len(keep))
		for _, i := range keep {
			if i < len(row) {
				r = append(r, row[i])
			}
		}
		out.Rows = append(out.Rows, r)
	}
	if !timingRe.MatchString(tb.Note) {
		out.Note = tb.Note
	}
	return out.String()
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("table differs from %s (run with -update if the change is intended)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestGoldenTextStripsTiming(t *testing.T) {
	tb := NewTable("x", "n", "wall (s)", "msgs/tick", "ms per round")
	tb.Add(4, 1.5, 2.0, 3.0)
	tb.Note = "wall time is machine-dependent"
	got := goldenText(tb)
	for _, drop := range []string{"wall", "ms per round", "1.500", "3.000"} {
		if strings.Contains(got, drop) {
			t.Errorf("goldenText kept %q:\n%s", drop, got)
		}
	}
	if !strings.Contains(got, "msgs/tick") || !strings.Contains(got, "2.000") {
		t.Errorf("goldenText dropped a count column:\n%s", got)
	}
}

func TestVerifyShapeUnknownIsNil(t *testing.T) {
	if err := VerifyShape("NOPE", NewTable("x")); err != nil {
		t.Errorf("unknown id should pass: %v", err)
	}
}

func TestCellHelpers(t *testing.T) {
	tb := NewTable("x", "alpha", "beta rounds")
	tb.Add("1.5", "oops")
	if v, err := cellFloat(tb, 0, "alpha"); err != nil || v != 1.5 {
		t.Errorf("cellFloat = %v, %v", v, err)
	}
	if _, err := cellFloat(tb, 0, "beta"); err == nil {
		t.Error("non-numeric cell should fail")
	}
	if _, err := cell(tb, 0, "gamma"); err == nil {
		t.Error("missing column should fail")
	}
	if _, err := cell(tb, 5, "alpha"); err == nil {
		t.Error("row out of range should fail")
	}
}

func TestNoteSlope(t *testing.T) {
	tb := NewTable("x")
	tb.Note = "log-log slope of adaptive rounds vs m = 1.01 (Lemma 4 predicts 1.0)"
	v, err := noteSlope(tb)
	if err != nil || v != 1.01 {
		t.Errorf("noteSlope = %v, %v", v, err)
	}
	tb.Note = "no figure here"
	if _, err := noteSlope(tb); err == nil {
		t.Error("missing slope should fail")
	}
}

func TestShapeBoundedRatioRejects(t *testing.T) {
	tb := NewTable("x", "done/bound")
	tb.Add("1.500")
	err := shapeBoundedRatio("done/bound", 1.0)(tb)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("expected bound violation, got %v", err)
	}
}

func TestShapeAllTrueRejects(t *testing.T) {
	tb := NewTable("x", "same-round termination")
	tb.Add("false")
	if err := shapeAllTrue("same-round termination")(tb); err == nil {
		t.Error("false row should fail")
	}
}
