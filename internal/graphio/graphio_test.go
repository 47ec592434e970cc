package graphio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"gossip/internal/graph"
)

func sameGraph(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for _, e := range a.Edges() {
		if l, ok := b.EdgeLatency(e.U, e.V); !ok || l != e.Latency {
			return false
		}
	}
	return true
}

func TestJSONRoundTrip(t *testing.T) {
	g := graph.RandomLatencies(graph.RingOfCliques(3, 4, 2), 1, 7, 5)
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, g); err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !sameGraph(g, back) {
		t.Error("JSON round trip altered the graph")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := graph.Grid(3, 4, 3)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !sameGraph(g, back) {
		t.Error("edge list round trip altered the graph")
	}
}

func TestEdgeListCommentsAndBlanks(t *testing.T) {
	in := `# hand-authored triangle
3 3

0 1 2
# middle comment
1 2 3
0 2 4
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Errorf("n=%d m=%d", g.N(), g.M())
	}
	if l, _ := g.EdgeLatency(1, 2); l != 3 {
		t.Errorf("latency(1,2) = %d", l)
	}
}

// TestReadEdgeListErrors: malformed input is rejected; where want is set,
// the error is the builder's, wrapped with the line it came from, or the
// latency limit.
func TestReadEdgeListErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want string
	}{
		{name: "empty", in: ""},
		{name: "bad header", in: "x y\n"},
		{name: "negative header", in: "-1 0\n"},
		{name: "bad edge line", in: "2 1\n0 x 1\n"},
		{name: "self loop", in: "2 1\n0 0 1\n", want: "graphio: line 2: graph: self loop at 0"},
		{name: "duplicate", in: "2 2\n0 1 1\n1 0 2\n", want: "graphio: line 3: graph: duplicate edge (1,0)"},
		{name: "count mismatch", in: "3 2\n0 1 1\n"},
		{name: "out of range", in: "2 1\n0 5 1\n", want: "graphio: line 2: graph: edge (0,5) out of range [0,2)"},
		{name: "zero latency", in: "2 1\n0 1 0\n", want: "graphio: line 2: graph: latency 0 < 1 on edge (0,1)"},
		{name: "latency over limit", in: fmt.Sprintf("2 1\n0 1 %d\n", MaxLatency+1), want: "graphio: line 2: latency 1048577 exceeds limit 1048576"},
		{name: "latency wider than int32", in: "2 1\n0 1 4294967297\n", want: "graphio: line 2: latency 4294967297 exceeds limit 1048576"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadEdgeList(strings.NewReader(tt.in))
			if err == nil || tt.want != "" && err.Error() != tt.want {
				t.Errorf("input %q: err = %v, want %q", tt.in, err, tt.want)
			}
		})
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want string
	}{
		{name: "garbage", in: "{"},
		{name: "negative n", in: `{"n": -1, "edges": []}`},
		{name: "bad edge", in: `{"n": 2, "edges": [{"u":0,"v":0,"latency":1}]}`, want: "graphio: edge 0: graph: self loop at 0"},
		{name: "duplicate", in: `{"n": 2, "edges": [{"u":0,"v":1,"latency":1},{"u":1,"v":0,"latency":1}]}`, want: "graphio: edge 1: graph: duplicate edge (1,0)"},
		{name: "latency wider than int32", in: `{"n": 2, "edges": [{"u":0,"v":1,"latency":4294967297}]}`, want: "graphio: edge 0: latency 4294967297 exceeds limit 1048576"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := DecodeJSON(strings.NewReader(tt.in))
			if err == nil || tt.want != "" && err.Error() != tt.want {
				t.Errorf("input %q: err = %v, want %q", tt.in, err, tt.want)
			}
		})
	}
}

func TestWriteDOT(t *testing.T) {
	g := graph.Path(3, 2)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "0 -- 1 [label=2];") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Errorf("DOT output malformed:\n%s", out)
	}
}

func TestQuickRoundTripsPreserveGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		n := 3 + int(seed%12)
		g := graph.RandomLatencies(graph.GNP(n, 0.4, 1, true, seed), 1, 9, seed)
		var jb, eb bytes.Buffer
		if err := EncodeJSON(&jb, g); err != nil {
			return false
		}
		jg, err := DecodeJSON(&jb)
		if err != nil || !sameGraph(g, jg) {
			return false
		}
		if err := WriteEdgeList(&eb, g); err != nil {
			return false
		}
		eg, err := ReadEdgeList(&eb)
		return err == nil && sameGraph(g, eg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHugeNodeCountRejected(t *testing.T) {
	// Regression for a fuzzing find: a huge header node count must be
	// rejected before allocation, not OOM.
	if _, err := ReadEdgeList(strings.NewReader("9999999999999 1\n")); err == nil {
		t.Error("huge edge-list node count accepted")
	}
	if _, err := DecodeJSON(strings.NewReader(`{"n": 9999999999, "edges": []}`)); err == nil {
		t.Error("huge JSON node count accepted")
	}
}

// TestMaxLatencyLoads: both loaders accept a latency of exactly MaxLatency
// and keep it, in ℓmax and in the packed rows.
func TestMaxLatencyLoads(t *testing.T) {
	edgeList := fmt.Sprintf("2 1\n0 1 %d\n", MaxLatency)
	jsonGraph := fmt.Sprintf(`{"n":2,"edges":[{"u":0,"v":1,"latency":%d}]}`, MaxLatency)
	for name, load := range map[string]func() (*graph.Graph, error){
		"edge list": func() (*graph.Graph, error) { return ReadEdgeList(strings.NewReader(edgeList)) },
		"JSON":      func() (*graph.Graph, error) { return DecodeJSON(strings.NewReader(jsonGraph)) },
	} {
		g, err := load()
		if err != nil {
			t.Fatalf("%s: latency %d rejected: %v", name, MaxLatency, err)
		}
		if g.MaxLatency() != MaxLatency || int(g.Neighbors(1)[0].Lat) != MaxLatency {
			t.Errorf("%s: ℓmax %d, row latency %d, want %d", name, g.MaxLatency(), g.Neighbors(1)[0].Lat, MaxLatency)
		}
	}
}
