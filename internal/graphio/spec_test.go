package graphio

import (
	"encoding/binary"
	"flag"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gossip/internal/graph"
)

// parseSpec parses args the way every command does: the spec's flags
// registered on a fresh flag set.
func parseSpec(t *testing.T, args ...string) *Spec {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var s Spec
	s.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &s
}

// TestSpecHelpListsFamilies: the -graph help names exactly the registry, in
// order.
func TestSpecHelpListsFamilies(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var s Spec
	s.Register(fs)
	usage := fs.Lookup("graph").Usage
	_, list, ok := strings.Cut(usage, ": ")
	if !ok {
		t.Fatalf("-graph usage %q lists no families", usage)
	}
	if got := strings.Split(list, ", "); !reflect.DeepEqual(got, Families()) {
		t.Errorf("-graph usage lists %v, registry has %v", got, Families())
	}
}

// TestSpecArgsRoundTrip: the flags Args returns parse back into the same
// spec, every field set away from its default.
func TestSpecArgsRoundTrip(t *testing.T) {
	in := parseSpec(t, "-graph", "t7", "-load", "g.json", "-n", "99", "-k", "3", "-s", "5",
		"-latency", "2", "-latmax", "7", "-chords", "6", "-p", "0.3", "-phi", "0.125",
		"-alpha", "0.5", "-beta", "2.75", "-avgdeg", "5.5", "-delta", "9", "-seed", "18446744073709551615")
	args := in.Args()
	if def := parseSpec(t); reflect.DeepEqual(def.Args(), args) {
		t.Error("Args ignores the parsed values")
	}
	out := parseSpec(t, args...)
	in.flags, out.flags = nil, nil
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the spec:\n in %+v\nout %+v", in, out)
	}
}

func edgeHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(b[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(b[4:], uint32(e.V))
		binary.LittleEndian.PutUint32(b[8:], uint32(e.Latency))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestRingChordsFleetGraphPinned pins the graphs the live fleets run: the
// arguments the procs-unix-flood benchmark workload (seeds 1 and 2, as its
// harness derives the graph seed) and CI's cluster smoke pass to gossipctl,
// forwarded to each daemon through Args. The hashes are the edge lists the
// daemons built before the spec existed.
func TestRingChordsFleetGraphPinned(t *testing.T) {
	for _, tc := range []struct {
		n, latMax int
		seed      uint64
		m         int
		hash      uint64
	}{
		{200000, 16, 9049798558263097923, 599993, 0x82c3ef31e104c30b},
		{200000, 16, 1732995292833665953, 599986, 0xea26b45a777b9055},
		{10000, 8, 11, 29986, 0x6ea4687ef7f5e402},
	} {
		ctl := parseSpec(t, "-graph", "ringchords", "-n", strconv.Itoa(tc.n), "-chords", "4",
			"-latmax", strconv.Itoa(tc.latMax), "-seed", strconv.FormatUint(tc.seed, 10))
		g, err := parseSpec(t, ctl.Args()...).Build()
		if err != nil {
			t.Fatal(err)
		}
		if g.M() != tc.m || edgeHash(g) != tc.hash {
			t.Errorf("ringchords n=%d latmax=%d seed=%d: m=%d hash=%#x, want m=%d hash=%#x",
				tc.n, tc.latMax, tc.seed, g.M(), edgeHash(g), tc.m, tc.hash)
		}
	}
}

// TestSpecChungLuLatMax: -latmax re-draws chunglu's latencies from
// [latency, latmax], and latmax <= latency keeps them uniform.
func TestSpecChungLuLatMax(t *testing.T) {
	for _, tc := range []struct {
		latency, latMax, wantMin, wantMax int
	}{
		{1, 5, 1, 5},
		{3, 9, 3, 9},
		{2, 0, 2, 2},
		{4, 4, 4, 4},
	} {
		g, err := parseSpec(t, "-graph", "chunglu", "-n", "200", "-latency", strconv.Itoa(tc.latency),
			"-latmax", strconv.Itoa(tc.latMax), "-seed", "3").Build()
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := g.Edges()[0].Latency, 0
		for _, e := range g.Edges() {
			lo, hi = min(lo, e.Latency), max(hi, e.Latency)
		}
		if lo != tc.wantMin || hi != tc.wantMax {
			t.Errorf("-latency %d -latmax %d: latencies in [%d,%d], want [%d,%d]",
				tc.latency, tc.latMax, lo, hi, tc.wantMin, tc.wantMax)
		}
	}
}

func TestSpecBuildErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-graph", "hypercube"},
		{"-graph", "ringcliques", "-k", "1"}, // the generator panics; Build reports it
		{"-graph", "chunglu", "-beta", "2"},
		{"-graph", "t6", "-n", "8", "-delta", "16"},
		{"-load", filepath.Join(t.TempDir(), "missing.json")},
	} {
		if g, err := parseSpec(t, args...).Build(); err == nil {
			t.Errorf("Build(%v) = %d nodes, want an error", args, g.N())
		}
	}
}

// TestSpecLoad: -load reads either format by extension and wins over -graph.
func TestSpecLoad(t *testing.T) {
	want := graph.RingOfCliques(3, 4, 2)
	dir := t.TempDir()
	for name, write := range map[string]func(*os.File) error{
		"g.json": func(f *os.File) error { return EncodeJSON(f, want) },
		"g.txt":  func(f *os.File) error { return WriteEdgeList(f, want) },
	} {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		s := parseSpec(t, "-graph", "clique", "-load", path)
		g, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameGraph(g, want) || s.Name() != path {
			t.Errorf("%s: loaded n=%d m=%d name %q", name, g.N(), g.M(), s.Name())
		}
	}
}

// TestSpecNodeCount: NodeCount agrees with the built graph for every family
// and for a loaded file, so the exactN column is true where it is set, and
// it builds nothing for a family of exactly -n nodes (t6 rejects these
// parameters, but its count is still -n).
func TestSpecNodeCount(t *testing.T) {
	for _, name := range Families() {
		s := parseSpec(t, "-graph", name, "-n", "40", "-k", "4", "-s", "5", "-delta", "8")
		g, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c, err := s.NodeCount(); err != nil || c != g.N() {
			t.Errorf("%s: NodeCount = %d, %v; the graph has %d nodes", name, c, err, g.N())
		}
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(f, graph.Dumbbell(5, 2)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err := parseSpec(t, "-load", path, "-n", "64").NodeCount(); err != nil || c != 10 {
		t.Errorf("-load dumbbell: NodeCount = %d, %v, want 10", c, err)
	}
	if c, err := parseSpec(t, "-graph", "t6", "-n", "8", "-delta", "16").NodeCount(); err != nil || c != 8 {
		t.Errorf("t6 -n 8: NodeCount = %d, %v, want 8 without a build", c, err)
	}
}
