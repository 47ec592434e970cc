package exp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestSetMaxWorkers(t *testing.T) {
	orig := MaxWorkers()
	defer SetMaxWorkers(orig)
	if prev := SetMaxWorkers(3); prev != orig {
		t.Errorf("SetMaxWorkers returned %d, want previous value %d", prev, orig)
	}
	if got := MaxWorkers(); got != 3 {
		t.Errorf("MaxWorkers() = %d, want 3", got)
	}
	// Values below 1 clamp to 1 (sequential).
	SetMaxWorkers(0)
	if got := MaxWorkers(); got != 1 {
		t.Errorf("MaxWorkers() after SetMaxWorkers(0) = %d, want 1", got)
	}
}

func TestParMapOrderAndConcurrency(t *testing.T) {
	orig := SetMaxWorkers(4)
	defer SetMaxWorkers(orig)
	var calls atomic.Int64
	out, err := parMap(100, func(i int) (int, error) {
		calls.Add(1)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 100 {
		t.Errorf("fn called %d times, want 100", calls.Load())
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d (results must stay in index order)", i, v, i*i)
		}
	}
}

// TestParMapLowestIndexError checks that a concurrent run surfaces the same
// error a sequential loop would: the one with the lowest index.
func TestParMapLowestIndexError(t *testing.T) {
	orig := SetMaxWorkers(8)
	defer SetMaxWorkers(orig)
	_, err := parMap(64, func(i int) (int, error) {
		if i%7 == 3 { // fails at 3, 10, 17, ...
			return 0, fmt.Errorf("cell %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "cell 3 failed" {
		t.Fatalf("err = %v, want the lowest failing index (cell 3)", err)
	}
}

func TestParMapSequentialStopsAtFirstError(t *testing.T) {
	orig := SetMaxWorkers(1)
	defer SetMaxWorkers(orig)
	var calls atomic.Int64
	sentinel := errors.New("boom")
	_, err := parMap(10, func(i int) (int, error) {
		calls.Add(1)
		if i == 2 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if calls.Load() != 3 {
		t.Errorf("sequential mode ran %d cells after the failure, want exactly 3", calls.Load())
	}
}

// TestParMapNested exercises a sweep-over-trials shape (outer parMap calling
// inner parMap) at a worker count far below the total cell count: since each
// call bounds only its own goroutines, the nesting must not deadlock.
func TestParMapNested(t *testing.T) {
	orig := SetMaxWorkers(2)
	defer SetMaxWorkers(orig)
	out, err := parMap(8, func(i int) ([]int, error) {
		return parMap(8, func(j int) (int, error) { return i*8 + j, nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, inner := range out {
		for j, v := range inner {
			if v != i*8+j {
				t.Fatalf("out[%d][%d] = %d, want %d", i, j, v, i*8+j)
			}
		}
	}
}

// TestParallelMatchesSequential is the harness's determinism contract: every
// registered experiment, rendered once with a single worker, must match the
// golden that TestShapesQuick checks its parallel render against.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running harness check")
	}
	if *update {
		t.Skip("goldens are being rewritten from the parallel render")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			checkGolden(t, goldenPath(id), goldenText(runQuick(t, id, 1)))
		})
	}
}
