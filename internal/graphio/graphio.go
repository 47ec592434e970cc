// Package graphio serializes latency-weighted graphs: a JSON format used by
// the tools and a plain edge-list text format convenient for hand-authored
// topologies and interchange with other systems. Its Spec is the one place
// the commands pick a graph: a generated family, or a file in either format.
package graphio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"gossip/internal/graph"
)

// MaxNodes bounds the node count accepted from untrusted input, so a
// malformed header cannot trigger an enormous allocation (found by fuzzing).
const MaxNodes = 1 << 22

// JSONGraph is the on-disk JSON shape.
type JSONGraph struct {
	N     int        `json:"n"`
	Edges []JSONEdge `json:"edges"`
}

// JSONEdge is one undirected edge.
type JSONEdge struct {
	U       int `json:"u"`
	V       int `json:"v"`
	Latency int `json:"latency"`
}

// EncodeJSON writes g as indented JSON.
func EncodeJSON(w io.Writer, g *graph.Graph) error {
	jg := JSONGraph{N: g.N(), Edges: make([]JSONEdge, 0, g.M())}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, JSONEdge{U: e.U, V: e.V, Latency: e.Latency})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(jg); err != nil {
		return fmt.Errorf("graphio: encode: %w", err)
	}
	return nil
}

// DecodeJSON reads a graph from JSON, validating structure (no self loops,
// duplicates, or out-of-range endpoints).
func DecodeJSON(r io.Reader) (*graph.Graph, error) {
	var jg JSONGraph
	dec := json.NewDecoder(r)
	if err := dec.Decode(&jg); err != nil {
		return nil, fmt.Errorf("graphio: decode: %w", err)
	}
	return build(jg.N, jg.Edges)
}

func build(n int, edges []JSONEdge) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graphio: negative node count %d", n)
	}
	if n > MaxNodes {
		return nil, fmt.Errorf("graphio: node count %d exceeds limit %d", n, MaxNodes)
	}
	g := graph.New(n)
	for i, e := range edges {
		if _, err := g.AddEdge(e.U, e.V, e.Latency); err != nil {
			return nil, fmt.Errorf("graphio: edge %d: %w", i, err)
		}
	}
	return g, nil
}

// WriteEdgeList writes the text format:
//
//	<n> <m>
//	<u> <v> <latency>   (m lines)
//
// Lines beginning with '#' are comments on read.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", g.N(), g.M())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.Latency)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graphio: write edge list: %w", err)
	}
	return nil
}

// ReadEdgeList parses the text format written by WriteEdgeList.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	var (
		g      *graph.Graph
		wantM  int
		gotM   int
		lineNo int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if g == nil {
			var n int
			if _, err := fmt.Sscanf(line, "%d %d", &n, &wantM); err != nil {
				return nil, fmt.Errorf("graphio: line %d: header %q: %w", lineNo, line, err)
			}
			if n < 0 || wantM < 0 {
				return nil, fmt.Errorf("graphio: line %d: negative header values", lineNo)
			}
			if n > MaxNodes {
				return nil, fmt.Errorf("graphio: line %d: node count %d exceeds limit %d", lineNo, n, MaxNodes)
			}
			g = graph.New(n)
			continue
		}
		var u, v, lat int
		if _, err := fmt.Sscanf(line, "%d %d %d", &u, &v, &lat); err != nil {
			return nil, fmt.Errorf("graphio: line %d: edge %q: %w", lineNo, line, err)
		}
		if _, err := g.AddEdge(u, v, lat); err != nil {
			return nil, fmt.Errorf("graphio: line %d: %w", lineNo, err)
		}
		gotM++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: read: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("graphio: empty input")
	}
	if gotM != wantM {
		return nil, fmt.Errorf("graphio: header declares %d edges, found %d", wantM, gotM)
	}
	return g, nil
}

// WriteDOT renders the graph in Graphviz DOT with latency labels.
func WriteDOT(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph G {")
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "  %d -- %d [label=%d];\n", e.U, e.V, e.Latency)
	}
	fmt.Fprintln(bw, "}")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graphio: write DOT: %w", err)
	}
	return nil
}
