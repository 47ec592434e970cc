package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// summary is one metric of one run: the median over the run's timed
// repetitions with its quartiles and sample count. Counts and totals have
// N = 1 and Q1 = Q3 = Value.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// recorder collects one sample per repetition per metric.
type recorder struct {
	samples map[string][]float64
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

func (r *recorder) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// set records a metric that is one value for the whole run.
func (r *recorder) set(name string, v float64) { r.samples[name] = []float64{v} }

func (r *recorder) sum(name string) float64 {
	t := 0.0
	for _, v := range r.samples[name] {
		t += v
	}
	return t
}

func (r *recorder) summarize(spec *benchSpec) map[string]summary {
	out := make(map[string]summary, len(r.samples))
	for name, xs := range r.samples {
		q1, med, q3 := quartiles(xs)
		out[name] = summary{Value: med, Unit: spec.unit(name), Q1: q1, Q3: q3, N: len(xs)}
	}
	return out
}

// envInfo is what a reader needs to place a result: the box, the toolchain
// and the fact that no byte left the host.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
}

const networkNote = "loopback only: all traffic crosses 127.0.0.1 or unix sockets on one host, never a real link"

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Trace     int                `json:"trace"`
	Seeds     seeds              `json:"seeds"`
	Seconds   float64            `json:"seconds"`
	Reps      int                `json:"timed_reps"`
	Env       envInfo            `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []string           `json:"failed_checks,omitempty"`
	Missing   []string           `json:"missing_counters,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// run is the state of one workload run that repetitions share.
type run struct {
	seeds  seeds
	tracer *tracer
	prof   *profiler

	attempted, failed int
	checks            []string
	missing           map[string]bool
	// first holds the exact counts of the first repetition that produced
	// them, for the must-repeat-exactly checks.
	first map[string]float64
}

// fail records a failed output check; the run then reports correct=false
// and exits non-zero.
func (r *run) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// exact checks that a count repeats exactly across repetitions with the same
// inputs.
func (r *run) exact(name string, v float64) {
	if prev, ok := r.first[name]; !ok {
		r.first[name] = v
	} else if prev != v {
		r.fail("%s did not repeat exactly: %v then %v", name, prev, v)
	}
}

// workload is one named input. rep runs one repetition with protocol seed
// index idx, adds its samples to rec, and traces it when traced is set.
type workload struct {
	name    string
	minReps int
	warmup  bool
	// children is set when the work happens in child processes, whose peak
	// RSS the repetition records itself from their rusage.
	children bool
	rep      func(r *run, idx int, traced bool, rec *recorder) error
	// finish derives the metrics that are ratios of sums over repetitions.
	finish func(r *run, rec *recorder)
}

var workloads = []workload{simLadder, inproc100k, tcpSat, tcpSatLossy, tcpPaced, procsUnixFlood}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload measures w for at least seconds and at least minReps timed
// repetitions. Untraced, every repetition is measured plain. Traced,
// repetitions alternate plain and traced: the plain ones are the reference
// harness.trace_overhead is taken against, so the overhead is measured inside
// the run that reports it.
func runWorkload(w workload, spec *benchSpec, base uint64, seconds float64, minReps int, trace bool) (*runResult, error) {
	r := &run{
		seeds: deriveSeeds(base), tracer: newTracer(), prof: &profiler{},
		missing: map[string]bool{}, first: map[string]float64{},
	}
	if w.warmup {
		if err := w.rep(r, 0, false, newRecorder()); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		r.attempted, r.failed = 0, 0
	}
	rec, plain := newRecorder(), newRecorder()
	if trace && minReps < 4 {
		minReps = 4
	}
	start := time.Now()
	reps := 0
	for time.Since(start).Seconds() < seconds || reps < minReps {
		reps++
		traced := trace && reps%2 == 0
		into := rec
		if trace && !traced {
			into = plain
		}
		perRep := !w.children && settle()
		if err := w.rep(r, reps, traced, into); err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", w.name, reps, err)
		}
		if perRep {
			into.add("peak_rss_mb", peakRSSMiB())
		}
	}
	if w.finish != nil {
		w.finish(r, rec)
	}
	if len(rec.samples["peak_rss_mb"]) == 0 {
		rec.set("peak_rss_mb", peakRSSMiB())
	}
	if r.attempted > 0 {
		rec.set("uninformed_share", float64(r.failed)/float64(r.attempted))
	}
	if trace {
		if err := r.prof.reduce(rec); err != nil {
			return nil, err
		}
		if ref := median(plain.samples["inform_wall_s"]); ref > 0 {
			rec.set("harness.trace_overhead", median(rec.samples["inform_wall_s"])/ref-1)
		}
		if err := r.tracer.write(w.name); err != nil {
			return nil, err
		}
	}
	res := &runResult{
		Workload: w.name, Seeds: r.seeds, Seconds: seconds, Reps: reps,
		Env: envInfo{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: "unknown", Network: networkNote,
		},
		Correct: len(r.checks) == 0, Attempted: r.attempted, Failed: r.failed,
		Checks: r.checks, Metrics: rec.summarize(spec),
	}
	if trace {
		res.Trace = 1
	}
	for name := range r.missing {
		res.Missing = append(res.Missing, name)
	}
	return res, nil
}

// settle gives every repetition the same start: the previous repetition's
// garbage is collected and returned to the system, and the kernel's RSS
// high-water mark is reset to what is left, so a repetition's peak RSS is its
// own and GC pacing does not leak from one repetition into the next. It
// reports whether the mark could be reset; where it cannot (clear_refs is not
// writable in every sandbox) peak RSS is the whole run's single mark.
func settle() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB is this process's RSS high-water mark, VmHWM.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the user+system CPU time this process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
