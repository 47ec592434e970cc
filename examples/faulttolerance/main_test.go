package main

import (
	"os"
	"testing"
)

// TestMainRuns runs the example end to end inside a scratch directory, so
// any file it writes lands there; a failure exits the test binary non-zero.
func TestMainRuns(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	main()
}
