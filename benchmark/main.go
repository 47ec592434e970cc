// Command benchmark is the one benchmark of the whole stack: a rumor released
// at one node until every node is informed, measured end to end on six
// workloads and attributed to layers by a separate traced pass. See
// README.md; BENCHMARK.json at the checkout root is the contract it meets.
//
//	bash benchmark/run.sh                       every workload, plain then traced
//	bash benchmark/run.sh --workload tcp-sat    one workload (what the driver runs)
//	bash benchmark/run.sh compare A.json B.json two result files against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			return fmt.Errorf("usage: benchmark compare A.json B.json")
		}
		return compareFiles(os.Stdout, args[1], args[2])
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed    = fs.Uint64("seed", 1, "derives every graph seed, protocol seed base and fault seed; claims must also hold on the held-out -seed 2")
		seconds = fs.Float64("seconds", 0, "measure each workload for at least this long (default: run_seconds of BENCHMARK.json)")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		reps    = fs.Int("reps", 0, "timed repetitions at least; may only raise a workload's default")
		out     = fs.String("out", "", "also write the full result (quartiles, sample counts, seeds, environment) to this JSON file")
		runs    = fs.Int("runs", 1, "all workloads: plain runs per workload, on seeds seed, seed+1, ...")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return fmt.Errorf("%w (run from the checkout root, as benchmark/run.sh does)", err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *name == "" {
		return runAll(spec, *seed, *seconds, *reps, *runs, *out)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	minReps := w.minReps
	if *reps != 0 {
		if *reps < w.minReps {
			return fmt.Errorf("-reps %d is below %s's default of %d; repetitions may only be raised", *reps, w.name, w.minReps)
		}
		minReps = *reps
	}
	res, err := runWorkload(w, spec, *seed, *seconds, minReps, *trace == 1)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeResults(*out, resultFile{Runs: []*runResult{res}}); err != nil {
			return err
		}
	}
	return report(os.Stdout, spec, res)
}

// report prints every metric the run produced by name with its unit, then —
// as the last line — the one JSON object the driver reads: every end-to-end
// metric for a plain run, every per-layer metric for a traced one. A per-layer
// metric that does not apply to the workload reads 0; a missing end-to-end
// metric or a failed output check is an error and prints no result line.
func report(w io.Writer, spec *benchSpec, res *runResult) error {
	fmt.Fprintf(w, "workload %s  trace=%d  seed=%d  timed reps=%d  nproc=%d GOMAXPROCS=%d %s\n",
		res.Workload, res.Trace, res.Seeds.Base, res.Reps, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.GoVersion)
	fmt.Fprintln(w, res.Env.Network)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-38s %16.6g %-6s (q1 %.6g, q3 %.6g, n=%d)\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	for _, name := range res.Missing {
		fmt.Fprintf(w, "  missing: the transport no longer exports %s; the metrics built on it are absent\n", name)
	}
	fmt.Fprintf(w, "  nodes attempted %d, not informed %d\n", res.Attempted, res.Failed)
	if !res.Correct {
		return fmt.Errorf("%s: output checks failed:\n  %s", res.Workload, strings.Join(res.Checks, "\n  "))
	}
	want := spec.EndToEnd
	if res.Trace == 1 {
		want = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok && res.Trace == 0 {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", res.Workload, m.Name)
		}
		metrics[m.Name] = value{got.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

// writeResults writes one run per line: compact enough to commit a baseline,
// and a diff shows which run changed.
func writeResults(path string, f resultFile) error {
	var b bytes.Buffer
	b.WriteString("{\"runs\": [\n")
	for i, r := range f.Runs {
		raw, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.Write(raw)
		if i < len(f.Runs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runAll runs every workload in a child process of its own, so heap, GC
// pacing and peak RSS do not leak from one workload into the next: runs plain
// passes per workload, then one traced pass.
func runAll(spec *benchSpec, seed uint64, seconds float64, reps, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	commit := "unknown"
	if raw, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(raw))
	}
	tmp := filepath.Join(buildDir, "tmp", fmt.Sprintf("run-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	var all resultFile
	var failed []string
	for _, w := range spec.Workloads {
		for pass := 0; pass <= runs; pass++ {
			trace, s := 0, seed+uint64(pass)
			if pass == runs {
				trace, s = 1, seed
			}
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", tmp}
			if def, ok := findWorkload(w.Name); ok && reps > def.minReps {
				args = append(args, "-reps", fmt.Sprint(reps))
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s trace=%d: %v", w.Name, trace, err))
			}
			if f, err := readResults(tmp); err == nil {
				for _, r := range f.Runs {
					r.Env.Commit = commit
				}
				all.Runs = append(all.Runs, f.Runs...)
			}
			os.Remove(tmp)
		}
	}
	if out != "" {
		if err := writeResults(out, all); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}
