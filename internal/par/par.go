// Package par is the repository's shared deterministic fan-out harness: a
// bounded worker pool that evaluates independent cells and merges results in
// index order. It was extracted from the experiment harness (internal/exp)
// so that analysis code — the conductance φ_ℓ ladder in internal/cut — can
// fan independent work across the same pool without an import cycle.
//
// The discipline is the one established by the PR 3 experiment harness:
// every cell owns its inputs (seed, level, scratch), cells never share
// mutable state, and results are merged in index order, so a parallel run is
// byte-identical to a sequential one. Determinism is per-cell, not
// per-schedule.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps the number of concurrent cells per Map call.
// 1 disables parallelism entirely.
var maxWorkers atomic.Int64

func init() { maxWorkers.Store(int64(runtime.GOMAXPROCS(0))) }

// SetMaxWorkers sets the per-call worker cap (n <= 1 forces sequential
// execution) and returns the previous value. The cap is global: experiment
// sweeps and conductance ladders share it.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(maxWorkers.Swap(int64(n)))
}

// MaxWorkers returns the current per-call worker cap.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// running counts the worker goroutines of every Map call in progress.
var running atomic.Int64

// Running returns how many worker goroutines Map calls have started and not
// yet ended, across every call in the process: a sequential Map starts none.
func Running() int { return int(running.Load()) }

// Map evaluates fn for every index in [0, n) — concurrently when the worker
// cap allows — and returns the results in index order. On failure it returns
// the error of the lowest failing index, matching what a sequential loop
// would surface. Nested calls are safe: each call bounds only its own
// goroutines, so an outer sweep blocked in Map never starves its inner
// loops.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	w := MaxWorkers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			var err error
			if out[i], err = fn(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
