//go:build race

package core

// raceEnabled reports whether the tests run under the race detector, which
// slows the simulator about tenfold.
const raceEnabled = true
