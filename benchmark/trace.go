package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// buildDir is where everything the benchmark builds or writes goes; run.sh
// creates it at the checkout root and .gitignore names it.
const buildDir = ".bench_build"

// span is one timed call from the harness into a layer's public function.
// Spans are recorded from outside the program only; spans inside it are a
// later issue. Parent is the index of the span that caused this one, -1 for
// a repetition.
type span struct {
	Name   string `json:"name"`
	Rep    int    `json:"rep"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when a traced run ends.
// A span costs two clock reads, so they are taken on plain repetitions too
// and the end-to-end timings are read off the same spans.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, rep, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Rep: rep, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	return float64(s.End-s.Start) / 1e9
}

func (t *tracer) write(workload string) error {
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), raw, 0o644)
}
