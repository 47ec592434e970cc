package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// exactMetrics are pure counts of the deterministic simulator on sim-ladder,
// whose repetitions are all the same computation: runs of the same seed must
// agree exactly between two result files.
var exactMetrics = []string{"t12_ratio", "sim.rounds", "sim.msgs"}

const exactWorkload = "sim-ladder"

// side is one file's view of one metric on one workload: the median and
// quartiles over its plain runs or, with a single run, over that run's
// repetitions.
type side struct {
	q1, med, q3 float64
	n           int
}

func sideOf(f *resultFile, workload, metric string) (side, bool) {
	var vals []float64
	var last *runResult
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
			last = r
		}
	}
	switch len(vals) {
	case 0:
		return side{}, false
	case 1:
		m := last.Metrics[metric]
		return side{m.Q1, m.Value, m.Q3, m.N}, true
	}
	q1, med, q3 := quartiles(vals)
	return side{q1, med, q3, len(vals)}, true
}

// verdict applies a metric's bound to base a and candidate b. A row whose
// spread on either side exceeds the bound is unresolved, not unchanged: the
// runs cannot tell a change of that size from noise.
func verdict(m metricSpec, a, b side) (worse float64, v string) {
	if a.med == 0 {
		return 0, "unresolved (base is 0)"
	}
	worse = b.med/a.med - 1
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return worse, "REGRESSED"
	case spread(a.q1, a.med, a.q3) > m.Bound || spread(b.q1, b.med, b.q3) > m.Bound:
		return worse, "unresolved"
	case worse < -m.Bound:
		return worse, "improved"
	}
	return worse, "within bound"
}

// compareExact prints one row per exact metric and seed present in both
// files and returns how many differ.
func compareExact(w io.Writer, spec *benchSpec, a, b *resultFile) (differ int) {
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != exactWorkload || rb.Workload != exactWorkload || ra.Trace != 0 || rb.Trace != 0 || ra.Seeds.Base != rb.Seeds.Base {
				continue
			}
			for _, name := range exactMetrics {
				va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value
				v := "exact: equal"
				if va != vb {
					v = "exact: DIFFERS"
					differ++
				}
				fmt.Fprintf(w, "%s\t%s (seed %d)\t%s\t%.10g\t%.10g\t\t\t0%%\t\t\t\t%s\n", exactWorkload, name, ra.Seeds.Base, spec.unit(name), va, vb, v)
			}
		}
	}
	return differ
}

// compareFiles prints, for every workload × end-to-end metric row, the ratio
// of B to its base A with both spreads and the verdict under the metric's
// bound from BENCHMARK.json. It fails if any row regressed or an exact count
// differs.
func compareFiles(w io.Writer, pathA, pathB string) error {
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase A\tB\tB/A\tworse by\tbound\tspread A\tspread B\tn A/B\tverdict")
	bad := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, okA := sideOf(a, wl.Name, m.Name)
			sb, okB := sideOf(b, wl.Name, m.Name)
			if !okA || !okB {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t-\t-\t-\t-\tnot in both files\n", wl.Name, m.Name, m.Unit)
				continue
			}
			worse, v := verdict(m, sa, sb)
			if v == "REGRESSED" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, m.Unit, sa.med, sb.med, sb.med/sa.med, 100*worse, 100*m.Bound,
				100*spread(sa.q1, sa.med, sa.q3), 100*spread(sb.q1, sb.med, sb.q3), sa.n, sb.n, v)
		}
		if wl.Name == exactWorkload {
			bad += compareExact(tw, spec, a, b)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed or differ", bad)
	}
	return nil
}
