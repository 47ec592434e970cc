package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossip/internal/graphio"
)

func TestRunProtocols(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "pushpull-default",
			args: []string{"-graph", "ringcliques", "-k", "3", "-s", "4", "-latency", "2", "-proto", "pushpull"},
			want: []string{"graph=ringcliques", "completed=true"},
		},
		{
			name: "flood-grid",
			args: []string{"-graph", "grid", "-k", "3", "-s", "3", "-proto", "flood"},
			want: []string{"completed=true"},
		},
		{
			name: "rr-with-spanner-stats",
			args: []string{"-graph", "clique", "-n", "12", "-proto", "rr"},
			want: []string{"completed=true", "spanner:"},
		},
		{
			name: "generaleid",
			args: []string{"-graph", "clique", "-n", "10", "-proto", "generaleid"},
			want: []string{"completed=true", "final estimate="},
		},
		{
			name: "unified",
			args: []string{"-graph", "clique", "-n", "10", "-proto", "unified"},
			want: []string{"winner="},
		},
		{
			name: "analyze",
			args: []string{"-graph", "dumbbell", "-s", "5", "-latency", "4", "-proto", "pushpull", "-analyze"},
			want: []string{"φ* =", "φ_4"},
		},
		{
			name: "t6-gadget",
			args: []string{"-graph", "t6", "-n", "24", "-delta", "8", "-proto", "pushpull"},
			want: []string{"graph=t6", "completed=true"},
		},
		{
			name: "chunglu-sequential-analyze",
			args: []string{"-graph", "chunglu", "-n", "80", "-beta", "2.5", "-avgdeg", "6", "-latmax", "4", "-proto", "pushpull", "-analyze", "-parallel=false"},
			want: []string{"graph=chunglu", "φ* =", "completed=true"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(tt.args, &sb); err != nil {
				t.Fatalf("run(%v): %v", tt.args, err)
			}
			for _, w := range tt.want {
				if !strings.Contains(sb.String(), w) {
					t.Errorf("output missing %q:\n%s", w, sb.String())
				}
			}
		})
	}
}

func TestTraceFlag(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.txt"
	var sb strings.Builder
	err := run([]string{"-graph", "path", "-n", "4", "-latency", "3", "-proto", "flood", "-trace", path}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	out := string(raw)
	for _, want := range []string{"initiate", "request", "response"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "unknown graph", args: []string{"-graph", "nope"}},
		{name: "unknown proto", args: []string{"-graph", "clique", "-n", "6", "-proto", "nope"}},
		{name: "bad flag", args: []string{"-not-a-flag"}},
		{name: "bad t7 phi", args: []string{"-graph", "t7", "-n", "8", "-phi", "0.9"}},
		{name: "bad ringcliques k", args: []string{"-graph", "ringcliques", "-k", "1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(tt.args, &sb); err == nil {
				t.Errorf("run(%v) should fail", tt.args)
			}
		})
	}
}

// TestBuildGraphFamilies builds every registered family through the
// command, graph only.
func TestBuildGraphFamilies(t *testing.T) {
	for _, name := range graphio.Families() {
		t.Run(name, func(t *testing.T) {
			args := []string{"-graph", name, "-proto", "", "-n", "24", "-k", "3", "-s", "4", "-latency", "2",
				"-p", "0.2", "-phi", "0.2", "-avgdeg", "6", "-delta", "8"}
			var sb strings.Builder
			if err := run(args, &sb); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
			if !strings.Contains(sb.String(), "graph="+name+" nodes=") || !strings.Contains(sb.String(), "connected=true") {
				t.Errorf("run(%v):\n%s", args, sb.String())
			}
		})
	}
}

// TestChungLuLatMax: -latmax re-draws chunglu's latencies from
// [latency, latmax].
func TestChungLuLatMax(t *testing.T) {
	var sb strings.Builder
	args := []string{"-graph", "chunglu", "-n", "40", "-latency", "1", "-latmax", "5", "-avgdeg", "6", "-seed", "3", "-proto", ""}
	if err := run(args, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "ℓmax=5 ") {
		t.Errorf("latmax ignored:\n%s", sb.String())
	}
}

func TestTrialsFlag(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-graph", "clique", "-n", "12", "-proto", "pushpull", "-trials", "5"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"trials=5", "mean=", "std=", "mean messages="} {
		if !strings.Contains(out, want) {
			t.Errorf("trials output missing %q:\n%s", want, out)
		}
	}
}

func TestSVGFlag(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/run.svg"
	var sb strings.Builder
	err := run([]string{"-graph", "dumbbell", "-s", "4", "-latency", "6", "-proto", "pushpull", "-svg", path}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read svg: %v", err)
	}
	out := string(raw)
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "<rect") {
		t.Errorf("svg malformed:\n%.200s", out)
	}
}

// TestRunAnalysis: -proto "" with -analyze prints the graph's statistics and
// conductance ladder and runs no protocol.
func TestRunAnalysis(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-graph", "dumbbell", "-s", "5", "-latency", "4", "-proto", "", "-analyze"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"graph=dumbbell", "connected=true", "weighted diameter", "φ* =", "φ_1", "φ_4"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "completed=") {
		t.Errorf("-proto \"\" ran a protocol:\n%s", out)
	}
}

func TestRunNoPhi(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-graph", "clique", "-n", "8", "-proto", ""}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(sb.String(), "φ*") {
		t.Error("the conductance ladder should need -analyze")
	}
}

func TestRunBadFamily(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-graph", "nope", "-proto", ""}, &sb); err == nil {
		t.Error("unknown family should fail")
	}
}

func TestJSONExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.json")
	var sb strings.Builder
	if err := run([]string{"-graph", "path", "-n", "4", "-latency", "3", "-proto", "", "-json", path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read export: %v", err)
	}
	var jg graphio.JSONGraph
	if err := json.Unmarshal(raw, &jg); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if jg.N != 4 || len(jg.Edges) != 3 {
		t.Errorf("exported n=%d edges=%d, want 4/3", jg.N, len(jg.Edges))
	}
	if jg.Edges[0].Latency != 3 {
		t.Errorf("latency = %d, want 3", jg.Edges[0].Latency)
	}
}

func TestDOTExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.dot")
	var sb strings.Builder
	if err := run([]string{"-graph", "cycle", "-n", "5", "-latency", "2", "-proto", "", "-dot", path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read export: %v", err)
	}
	out := string(raw)
	if !strings.HasPrefix(out, "graph G {") || !strings.Contains(out, "0 -- 1 [label=2];") {
		t.Errorf("DOT output malformed:\n%s", out)
	}
	if strings.Count(out, "--") != 5 {
		t.Errorf("DOT edge count = %d, want 5", strings.Count(out, "--"))
	}
}

// TestExportThenLoadRoundTrip exports a graph in each format and runs a
// protocol on the loaded copy.
func TestExportThenLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, ext := range []string{"json", "txt"} {
		t.Run(ext, func(t *testing.T) {
			path := filepath.Join(dir, "g."+ext)
			flag := "-json"
			if ext == "txt" {
				flag = "-edgelist"
			}
			var sb strings.Builder
			if err := run([]string{"-graph", "ringcliques", "-k", "3", "-s", "4", "-latency", "2", "-proto", "", flag, path}, &sb); err != nil {
				t.Fatalf("export: %v", err)
			}
			var sb2 strings.Builder
			if err := run([]string{"-load", path, "-proto", "flood"}, &sb2); err != nil {
				t.Fatalf("load: %v", err)
			}
			for _, want := range []string{"graph=" + path + " nodes=12 edges=21", "completed=true"} {
				if !strings.Contains(sb2.String(), want) {
					t.Errorf("loaded run missing %q:\n%s", want, sb2.String())
				}
			}
		})
	}
}

func TestLoadMissingFile(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-load", "/nonexistent/file.json"}, &sb); err == nil {
		t.Error("missing file should fail")
	}
}
