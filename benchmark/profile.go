package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profiler takes one CPU profile per traced repetition, around the timed
// region, and reduces them together to a share of CPU time per layer.
type profiler struct {
	files []string
	cur   *os.File
}

func (p *profiler) start(rep int) error {
	dir := filepath.Join(buildDir, "prof")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%d-%d.pb.gz", os.Getpid(), rep)))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cur = f
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	err := p.cur.Close()
	p.files = append(p.files, p.cur.Name())
	p.cur = nil
	return err
}

// reduce merges the run's profiles with `go tool pprof -top -files` and sets
// cpu_share.<layer> for every layer. A workload whose work happens in child
// processes has no profile and reports no shares.
func (p *profiler) reduce(rec *recorder) error {
	if len(p.files) == 0 {
		return nil
	}
	defer func() {
		for _, f := range p.files {
			os.Remove(f)
		}
	}()
	args := append([]string{"tool", "pprof", "-top", "-files", "-nodecount=100000", "-nodefraction=0"}, p.files...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Join(buildDir, "tmp"))
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	byFile, err := parsePprofTop(string(out))
	if err != nil {
		return err
	}
	for layer, share := range layerShares(byFile) {
		rec.set("cpu_share."+layer, share)
	}
	return nil
}

var pprofRow = regexp.MustCompile(`^\s*([0-9.]+)(ns|us|µs|ms|s|mins|hrs)\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+(?:ns|us|µs|ms|s|mins|hrs)\s+[0-9.]+%\s+(\S.*)$`)

var pprofUnit = map[string]float64{"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "mins": 60, "hrs": 3600}

// parsePprofTop reads the rows of a `pprof -top -files` report: flat seconds
// per source file.
func parsePprofTop(report string) (map[string]float64, error) {
	byFile := map[string]float64{}
	inRows := false
	for _, line := range strings.Split(report, "\n") {
		if !inRows {
			inRows = strings.Contains(line, "flat%") && strings.Contains(line, "cum%")
			continue
		}
		m := pprofRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		byFile[strings.TrimSuffix(strings.TrimSpace(m[3]), " (inline)")] += v * pprofUnit[m[2]]
	}
	if !inRows {
		return nil, fmt.Errorf("pprof report has no flat%%/cum%% header")
	}
	return byFile, nil
}

// cpuLayers is every layer a cpu_share.* metric exists for.
var cpuLayers = []string{
	"live.shard", "live.wheel", "live.wire", "live.stream", "live.chan", "live.faults", "live.member", "live.other",
	"core", "sim", "graph", "cut", "rng",
	"runtime.gc", "runtime.sched", "runtime.mem", "syscall", "harness", "other",
}

// liveFiles maps the basenames of internal/live to layers. A file that is
// not listed lands in live.other, so a stale table shows up as a number.
var liveFiles = map[string]string{
	"shard.go": "live.shard", "node.go": "live.shard", "live.go": "live.shard", "protocol.go": "live.shard",
	"wheel.go": "live.wheel",
	"wire.go":  "live.wire", "codec.go": "live.wire",
	"stream_transport.go": "live.stream", "tcp_transport.go": "live.stream", "uds_transport.go": "live.stream",
	"ring_transport.go": "live.stream", "overload.go": "live.stream",
	"chan_transport.go": "live.chan", "transport.go": "live.chan",
	"faults.go": "live.faults", "nemesis.go": "live.faults",
	"membership.go": "live.member",
}

// repoDirs maps the other internal packages to layers.
var repoDirs = map[string]string{
	"internal/member/": "live.member",
	"internal/core/":   "core", "internal/bitset/": "core", "internal/spanner/": "core",
	"internal/sim/":   "sim",
	"internal/graph/": "graph", "internal/graphio/": "graph",
	"internal/cut/": "cut", "internal/par/": "cut",
	"internal/rng/": "rng",
}

// runtimePrefixes maps basename prefixes of the Go runtime's files to the
// three runtime layers, first match wins; what matches none is runtime.sched,
// the scheduler being where the rest of the runtime's time goes.
var runtimePrefixes = []struct{ prefix, layer string }{
	{"mgc", "runtime.gc"}, {"mbitmap", "runtime.gc"}, {"mwbbuf", "runtime.gc"}, {"mbarrier", "runtime.gc"},
	{"mfinal", "runtime.gc"}, {"mcheckmark", "runtime.gc"},
	{"malloc", "runtime.mem"}, {"mheap", "runtime.mem"}, {"mcache", "runtime.mem"}, {"mcentral", "runtime.mem"},
	{"mpage", "runtime.mem"}, {"mpall", "runtime.mem"}, {"mfixalloc", "runtime.mem"}, {"msize", "runtime.mem"},
	{"mspanset", "runtime.mem"}, {"mem_", "runtime.mem"}, {"memmove", "runtime.mem"}, {"memclr", "runtime.mem"},
	{"mranges", "runtime.mem"}, {"stack", "runtime.mem"}, {"slice", "runtime.mem"}, {"map", "runtime.mem"},
	{"arena", "runtime.mem"}, {"string", "runtime.mem"}, {"duff", "runtime.mem"},
}

// layerOf names the layer a source file's CPU time is charged to.
func layerOf(file string) string {
	base := filepath.Base(file)
	switch {
	case strings.Contains(file, "internal/live/"):
		if l, ok := liveFiles[base]; ok {
			return l
		}
		return "live.other"
	case strings.Contains(file, "/benchmark/"):
		return "harness"
	case strings.Contains(file, "/src/runtime/") || strings.Contains(file, "/src/internal/runtime/"):
		if strings.Contains(file, "/internal/runtime/syscall/") {
			return "syscall"
		}
		if strings.Contains(file, "/internal/runtime/maps/") {
			return "runtime.mem"
		}
		for _, p := range runtimePrefixes {
			if strings.HasPrefix(base, p.prefix) {
				return p.layer
			}
		}
		return "runtime.sched"
	}
	for _, dir := range []string{"/src/syscall/", "/src/internal/poll/", "/src/internal/syscall/", "/src/net/", "/src/os/"} {
		if strings.Contains(file, dir) {
			return "syscall"
		}
	}
	for dir, layer := range repoDirs {
		if strings.Contains(file, dir) {
			return layer
		}
	}
	// Locks and atomics are charged with the scheduler they wait on, the
	// standard generator with the repo's own, varint coding with the codec
	// that calls it.
	switch {
	case strings.Contains(file, "/src/sync/"), strings.Contains(file, "/src/internal/sync/"):
		return "runtime.sched"
	case strings.Contains(file, "/src/math/rand/"):
		return "rng"
	case strings.Contains(file, "/src/encoding/binary/"):
		return "live.wire"
	}
	return "other"
}

// layerShares turns flat seconds per file into a share per layer; every
// layer is present and the shares sum to 1.
func layerShares(byFile map[string]float64) map[string]float64 {
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	total := 0.0
	for file, s := range byFile {
		shares[layerOf(file)] += s
		total += s
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares
}
