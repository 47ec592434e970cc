//go:build race

package live

// raceEnabled reports whether the tests run under the race detector, which
// slows the live stack several times over.
const raceEnabled = true
