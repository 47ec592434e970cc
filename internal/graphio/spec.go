package graphio

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"gossip/internal/graph"
)

// Spec selects a graph: a generated family with its parameters, or a file
// to load. Register binds it to command-line flags, Build makes the graph,
// and Args turns it back into flags, so a supervisor hands every process it
// starts the same graph.
type Spec struct {
	Family string // a name from Families
	Load   string // when set, read the graph from this file instead

	N, K, S, Latency, LatMax, Chords, Delta int
	P, Phi, Alpha, Beta, AvgDeg             float64
	Seed                                    uint64

	flags *flag.FlagSet // the spec's own flags, set by Register
}

// families is the registry of generated graph families, in help-text order.
// exactN marks the families whose graphs have exactly N nodes; the others
// read N as a size parameter (t7, ring8) or not at all (grid, ringcliques,
// dumbbell).
var families = []struct {
	name   string
	exactN bool
	build  func(s *Spec) (*graph.Graph, error)
}{
	{"clique", true, func(s *Spec) (*graph.Graph, error) { return graph.Clique(s.N, s.Latency), nil }},
	{"star", true, func(s *Spec) (*graph.Graph, error) { return graph.Star(s.N, s.Latency), nil }},
	{"path", true, func(s *Spec) (*graph.Graph, error) { return graph.Path(s.N, s.Latency), nil }},
	{"cycle", true, func(s *Spec) (*graph.Graph, error) { return graph.Cycle(s.N, s.Latency), nil }},
	{"grid", false, func(s *Spec) (*graph.Graph, error) { return graph.Grid(s.K, s.S, s.Latency), nil }},
	{"gnp", true, func(s *Spec) (*graph.Graph, error) { return graph.GNP(s.N, s.P, s.Latency, true, s.Seed), nil }},
	{"ringcliques", false, func(s *Spec) (*graph.Graph, error) { return graph.RingOfCliques(s.K, s.S, s.Latency), nil }},
	{"dumbbell", false, func(s *Spec) (*graph.Graph, error) { return graph.Dumbbell(s.S, s.Latency), nil }},
	{"chunglu", true, func(s *Spec) (*graph.Graph, error) {
		g := graph.ChungLu(s.N, s.Beta, s.AvgDeg, s.Latency, s.Seed)
		if s.LatMax > s.Latency {
			g = graph.RandomLatencies(g, s.Latency, s.LatMax, s.Seed)
		}
		return g, nil
	}},
	{"ringchords", true, func(s *Spec) (*graph.Graph, error) { return graph.RingChords(s.N, s.Chords, s.LatMax, s.Seed), nil }},
	{"t6", true, func(s *Spec) (*graph.Graph, error) {
		h, err := graph.NewTheoremSixNetwork(s.N, s.Delta, s.Seed)
		if err != nil {
			return nil, err
		}
		return h.G, nil
	}},
	{"t7", false, func(s *Spec) (*graph.Graph, error) {
		tn, err := graph.NewTheoremSevenNetwork(s.N, s.Phi, s.Latency, s.Seed)
		if err != nil {
			return nil, err
		}
		return tn.G, nil
	}},
	{"ring8", false, func(s *Spec) (*graph.Graph, error) {
		rn, err := graph.NewRingNetwork(s.N, s.Alpha, s.Latency, s.Seed)
		if err != nil {
			return nil, err
		}
		return rn.G, nil
	}},
}

// Families lists the names Spec.Family accepts.
func Families() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}

// Register defines the graph flags on fs, bound to s and set to their
// defaults.
func (s *Spec) Register(fs *flag.FlagSet) {
	own := flag.NewFlagSet("graph", flag.ContinueOnError)
	own.StringVar(&s.Family, "graph", "ringcliques", "graph family: "+strings.Join(Families(), ", "))
	own.StringVar(&s.Load, "load", "", "load the graph from this file instead of -graph (.json as graphio JSON, anything else as an edge list)")
	own.IntVar(&s.N, "n", 64, "node count (t7, ring8: size parameter; grid, ringcliques, dumbbell: unused)")
	own.IntVar(&s.K, "k", 8, "ringcliques: cliques in the ring; grid: rows")
	own.IntVar(&s.S, "s", 8, "ringcliques, dumbbell: clique size; grid: cols")
	own.IntVar(&s.Latency, "latency", 1, "edge or bridge latency (family dependent)")
	own.IntVar(&s.LatMax, "latmax", 16, "chunglu: re-draw latencies uniformly from [latency, latmax] when latmax > latency; ringchords: chord latencies uniform in [1, latmax]")
	own.IntVar(&s.Chords, "chords", 4, "ringchords: expected chord edges per node")
	own.Float64Var(&s.P, "p", 0.1, "gnp: edge probability")
	own.Float64Var(&s.Phi, "phi", 0.1, "t7: fast-edge probability φ")
	own.Float64Var(&s.Alpha, "alpha", 0.25, "ring8: conductance parameter α")
	own.Float64Var(&s.Beta, "beta", 2.5, "chunglu: power-law degree exponent (> 2)")
	own.Float64Var(&s.AvgDeg, "avgdeg", 8, "chunglu: expected average degree")
	own.IntVar(&s.Delta, "delta", 16, "t6: max degree Δ")
	own.Uint64Var(&s.Seed, "seed", 1, "seed of the random families and of the run")
	own.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	s.flags = own
}

// Args returns the spec as command-line flags, every graph flag with its
// current value; Register must have been called.
func (s *Spec) Args() []string {
	var args []string
	s.flags.VisitAll(func(f *flag.Flag) { args = append(args, "-"+f.Name+"="+f.Value.String()) })
	return args
}

// Name labels the graph in reports: the loaded file, or the family.
func (s *Spec) Name() string {
	if s.Load != "" {
		return s.Load
	}
	return s.Family
}

// Build generates the graph, or loads it when Load is set. Parameters a
// generator rejects are reported as an error.
func (s *Spec) Build() (g *graph.Graph, err error) {
	if s.Load != "" {
		return load(s.Load)
	}
	for _, f := range families {
		if f.name != s.Family {
			continue
		}
		defer func() {
			if r := recover(); r != nil {
				if _, bug := r.(runtime.Error); bug {
					panic(r)
				}
				g, err = nil, fmt.Errorf("-graph %s: %v", s.Family, r)
			}
		}()
		return f.build(s)
	}
	return nil, fmt.Errorf("unknown graph family %q (want %s)", s.Family, strings.Join(Families(), ", "))
}

// NodeCount returns how many nodes the graph has. A family of exactly N
// nodes answers N without building anything; any other family, or a file,
// is built or loaded to count.
func (s *Spec) NodeCount() (int, error) {
	if s.Load == "" {
		for _, f := range families {
			if f.name == s.Family && f.exactN {
				return s.N, nil
			}
		}
	}
	g, err := s.Build()
	if err != nil {
		return 0, err
	}
	return g.N(), nil
}

func load(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return DecodeJSON(f)
	}
	return ReadEdgeList(f)
}
