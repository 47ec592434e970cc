package graphio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the text parser never panics and that anything it
// accepts round-trips losslessly.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("3 2\n0 1 1\n1 2 4\n")
	f.Add("# comment\n2 1\n0 1 9\n")
	f.Add("")
	f.Add("1 0\n")
	f.Add("2 1\n0 1 -3\n")
	f.Add("999999999999999999999 1\n0 1 1\n")
	f.Add("2 1\n0 1 4294967297\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return // rejected input: fine, just must not panic
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write accepted graph: %v", err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read own output: %v", err)
		}
		if !sameGraph(g, back) {
			t.Fatal("round trip of accepted input altered the graph")
		}
	})
}

// FuzzDecodeJSON checks the JSON path likewise.
func FuzzDecodeJSON(f *testing.F) {
	f.Add(`{"n":3,"edges":[{"u":0,"v":1,"latency":2}]}`)
	f.Add(`{"n":0,"edges":[]}`)
	f.Add(`{`)
	f.Add(`{"n":-5}`)
	f.Add(`{"n":2,"edges":[{"u":0,"v":0,"latency":1}]}`)
	f.Add(`{"n":2,"edges":[{"u":0,"v":1,"latency":4294967297}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		g, err := DecodeJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, g); err != nil {
			t.Fatalf("encode accepted graph: %v", err)
		}
		back, err := DecodeJSON(&buf)
		if err != nil {
			t.Fatalf("re-decode own output: %v", err)
		}
		if !sameGraph(g, back) {
			t.Fatal("round trip of accepted input altered the graph")
		}
	})
}
