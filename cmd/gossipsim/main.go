// Command gossipsim builds one graph, prints its statistics, optionally
// analyzes and exports it, and runs one dissemination protocol on it,
// printing the resulting metrics. With -proto "" it stops after the graph:
// statistics, -analyze and the -json/-edgelist/-dot exports.
//
// Usage:
//
//	gossipsim -graph ringcliques -k 8 -s 8 -latency 4 -proto pushpull -seed 1
//	gossipsim -graph clique -n 64 -proto generaleid
//	gossipsim -graph t7 -n 64 -phi 0.1 -latency 4 -proto pushpull
//	gossipsim -graph ring8 -n 64 -alpha 0.25 -latency 8 -proto "" -analyze -dot ring.dot
//	gossipsim -load ring.json -proto flood
//
// Graphs: clique, star, path, cycle, grid, gnp, ringcliques, dumbbell,
// chunglu (power-law, -beta/-avgdeg/-latmax), ringchords (-chords/-latmax),
// t6, t7, ring8 (the Theorem 8 layered ring), or -load FILE (.json as
// graphio JSON, anything else as an edge list).
// Protocols: pushpull, pushonly, flood, dtg, rr, eid, generaleid, tseq,
// pathdiscovery, discovereid, unified.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gossip"
	"gossip/internal/graphio"
	"gossip/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gossipsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gossipsim", flag.ContinueOnError)
	var spec graphio.Spec
	spec.Register(fs)
	var (
		proto     = fs.String("proto", "pushpull", "protocol to run (empty = build, analyze and export the graph only)")
		source    = fs.Int("source", 0, "broadcast source node")
		maxRounds = fs.Int("maxrounds", 0, "round budget (0 = default)")
		d         = fs.Int("d", 0, "diameter parameter for eid/tseq/rr/dtg (0 = computed)")
		analyze   = fs.Bool("analyze", false, "also print φ*/ℓ* analysis")
		parallel  = fs.Bool("parallel", true, "fan analysis work (φ_ℓ ladder) across CPUs; false forces one worker")
		tracePath = fs.String("trace", "", "write the engine event trace to this file")
		svgPath   = fs.String("svg", "", "write an SVG timeline of the run to this file")
		trials    = fs.Int("trials", 1, "repeat the run with seeds seed..seed+trials-1 and report statistics")
		jsonPath  = fs.String("json", "", "write the graph as JSON to this file")
		edgePath  = fs.String("edgelist", "", "write the graph as plain edge-list text to this file")
		dotPath   = fs.String("dot", "", "write the graph as Graphviz DOT to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*parallel {
		defer gossip.SetAnalysisWorkers(gossip.SetAnalysisWorkers(1))
	}

	g, err := spec.Build()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "graph=%s nodes=%d edges=%d Δ=%d ℓmax=%d connected=%v\n",
		spec.Name(), g.N(), g.M(), g.MaxDegree(), g.MaxLatency(), g.Connected())

	diam := *d
	if diam <= 0 {
		diam = g.WeightedDiameterApprox()
	}
	fmt.Fprintf(out, "weighted diameter ≈ %d\n", diam)
	if *analyze {
		wc, err := gossip.WeightedConductance(g, spec.Seed)
		if err != nil {
			return fmt.Errorf("conductance: %w", err)
		}
		fmt.Fprintf(out, "φ* = %.5f at ℓ* = %d (exact=%v)\n", wc.PhiStar, wc.EllStar, wc.Exact)
		for _, l := range wc.Ladder {
			fmt.Fprintf(out, "  φ_%d = %.5f (φ/ℓ = %.5f)\n", l.Ell, l.Phi, l.Ratio)
		}
	}
	for _, exp := range []struct {
		path  string
		write func(io.Writer, *gossip.Graph) error
	}{
		{path: *jsonPath, write: graphio.EncodeJSON},
		{path: *edgePath, write: graphio.WriteEdgeList},
		{path: *dotPath, write: graphio.WriteDOT},
	} {
		if exp.path == "" {
			continue
		}
		if err := writeFile(exp.path, g, exp.write); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", exp.path)
	}
	if *proto == "" {
		return nil
	}

	opts := gossip.Options{Seed: spec.Seed, MaxRounds: *maxRounds}
	if *trials > 1 {
		return runTrials(out, *proto, g, *source, diam, opts, *trials)
	}
	var rec gossip.Recorder
	var traceW *bufio.Writer
	if *tracePath != "" || *svgPath != "" {
		record := rec.Tracer()
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return fmt.Errorf("create trace file: %w", err)
			}
			defer f.Close()
			traceW = bufio.NewWriter(f)
			defer traceW.Flush()
		}
		opts.Trace = func(ev gossip.TraceEvent) {
			if *svgPath != "" {
				record(ev)
			}
			if traceW != nil {
				fmt.Fprintln(traceW, ev.String())
			}
		}
	}
	if err := runProtocol(out, *proto, g, *source, diam, opts); err != nil {
		return err
	}
	if *tracePath != "" {
		fmt.Fprintf(out, "wrote trace to %s\n", *tracePath)
	}
	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			return fmt.Errorf("create svg file: %w", err)
		}
		defer f.Close()
		title := fmt.Sprintf("%s on %s (n=%d)", *proto, spec.Name(), g.N())
		if err := viz.Timeline(f, g.N(), rec.Events, viz.TimelineOptions{Title: title}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote timeline to %s\n", *svgPath)
	}
	return nil
}

func writeFile(path string, g *gossip.Graph, write func(io.Writer, *gossip.Graph) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTrials repeats the protocol across consecutive seeds and prints
// round-count statistics.
func runTrials(out io.Writer, proto string, g *gossip.Graph, source, diam int, opts gossip.Options, trials int) error {
	var rounds []float64
	var msgs, bytes float64
	for i := 0; i < trials; i++ {
		o := opts
		o.Seed = opts.Seed + uint64(i)
		var sink strings.Builder
		m, err := runProtocolMetrics(&sink, proto, g, source, diam, o)
		if err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		rounds = append(rounds, float64(m.Rounds))
		msgs += float64(m.Messages()) / float64(trials)
		bytes += float64(m.Bytes) / float64(trials)
	}
	mean, minV, maxV := 0.0, rounds[0], rounds[0]
	for _, r := range rounds {
		mean += r / float64(trials)
		if r < minV {
			minV = r
		}
		if r > maxV {
			maxV = r
		}
	}
	variance := 0.0
	for _, r := range rounds {
		variance += (r - mean) * (r - mean) / float64(trials)
	}
	fmt.Fprintf(out, "trials=%d rounds: mean=%.1f min=%.0f max=%.0f std=%.1f\n",
		trials, mean, minV, maxV, sqrt(variance))
	fmt.Fprintf(out, "mean messages=%.0f mean bytes=%.0f\n", msgs, bytes)
	return nil
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	r := x
	for i := 0; i < 40; i++ {
		r = (r + x/r) / 2
	}
	return r
}

// runProtocolMetrics runs one protocol and returns its metrics.
func runProtocolMetrics(out io.Writer, proto string, g *gossip.Graph, source, diam int, opts gossip.Options) (gossip.Metrics, error) {
	var captured gossip.Metrics
	err := runProtocolWith(out, proto, g, source, diam, opts, &captured)
	return captured, err
}

func runProtocol(out io.Writer, proto string, g *gossip.Graph, source, diam int, opts gossip.Options) error {
	var sink gossip.Metrics
	return runProtocolWith(out, proto, g, source, diam, opts, &sink)
}

func runProtocolWith(out io.Writer, proto string, g *gossip.Graph, source, diam int, opts gossip.Options, captured *gossip.Metrics) error {
	printMetrics := func(m gossip.Metrics, completed bool) {
		*captured = m
		fmt.Fprintf(out, "completed=%v rounds=%d messages=%d bytes=%d activations=%d\n",
			completed, m.Rounds, m.Messages(), m.Bytes, m.EdgeActivations)
	}
	switch proto {
	case "pushpull":
		res, err := gossip.RunPushPull(g, source, opts)
		printMetrics(res.Metrics, res.Completed)
		return err
	case "pushonly":
		res, err := gossip.RunPushOnly(g, source, opts)
		printMetrics(res.Metrics, res.Completed)
		return err
	case "flood":
		res, err := gossip.RunFlood(g, source, opts)
		printMetrics(res.Metrics, res.Completed)
		return err
	case "dtg":
		res, err := gossip.RunLocalBroadcast(g, diam, opts)
		printMetrics(res.Metrics, res.Completed)
		return err
	case "rr":
		res, err := gossip.RunRRBroadcast(g, diam, 0, opts)
		printMetrics(res.Metrics, res.Completed)
		fmt.Fprintf(out, "spanner: edges=%d Δout=%d stretch=%.2f completed@=%d\n",
			res.SpannerSize, res.MaxOutDegree, res.Stretch, res.RoundsToComplete)
		return err
	case "eid":
		res, err := gossip.RunEID(g, diam, opts)
		printMetrics(res.Metrics, res.Completed)
		return err
	case "generaleid":
		res, err := gossip.RunGeneralEID(g, opts)
		printMetrics(res.Metrics, res.Completed)
		fmt.Fprintf(out, "final estimate=%d\n", res.FinalEstimate)
		return err
	case "tseq":
		res, err := gossip.RunTSequence(g, diam, opts)
		printMetrics(res.Metrics, res.Completed)
		return err
	case "pathdiscovery":
		res, err := gossip.RunPathDiscovery(g, opts)
		printMetrics(res.Metrics, res.Completed)
		return err
	case "discovereid":
		res, err := gossip.RunDiscoverEID(g, opts)
		printMetrics(res.Metrics, res.Completed)
		return err
	case "unified":
		res, err := gossip.RunUnified(g, source, true, opts)
		if err != nil {
			return err
		}
		captured.Rounds = res.Rounds
		fmt.Fprintf(out, "winner=%s interleaved-rounds=%d (push-pull=%d, spanner=%d)\n",
			res.Winner, res.Rounds, res.PushPull.Metrics.Rounds, res.Spanner.Metrics.Rounds)
		return nil
	default:
		return errors.New("unknown protocol " + proto)
	}
}
