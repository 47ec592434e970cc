package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	if Hash(1, 2, 3) != Hash(1, 2, 3) {
		t.Error("Hash not deterministic")
	}
	if Hash(1, 2, 3) == Hash(1, 2, 4) {
		t.Error("Hash collision on trivially different inputs")
	}
	if Hash(1, 2) == Hash(2, 1) {
		t.Error("Hash should be order sensitive")
	}
}

func TestCoinEdgeCases(t *testing.T) {
	if Coin(0, 1, 2) {
		t.Error("p=0 must never be true")
	}
	if Coin(-0.5, 1, 2) {
		t.Error("negative p must never be true")
	}
	if !Coin(1, 1, 2) {
		t.Error("p=1 must always be true")
	}
	if !Coin(1.5, 1, 2) {
		t.Error("p>1 must always be true")
	}
}

func TestCoinSharedRandomness(t *testing.T) {
	// Two independent evaluations with the same tuple agree — the property
	// that lets distributed nodes share sampling decisions.
	for i := uint64(0); i < 1000; i++ {
		if Coin(0.3, 42, i) != Coin(0.3, 42, i) {
			t.Fatalf("coin %d not reproducible", i)
		}
	}
}

func TestCoinIsHashOfSeededTuple(t *testing.T) {
	// Coin(p, seed, vals...) maps the top 53 bits of Hash(seed, vals...) to
	// [0, 1), so coins drawn before and after a caller switches between the
	// two forms agree.
	for i := uint64(0); i < 1000; i++ {
		vals := []uint64{i, i * 3, 7}
		u := float64(Hash(append([]uint64{i ^ 99}, vals...)...)>>11) / (1 << 53)
		for _, p := range []float64{0.01, 0.3, 0.5, 0.99} {
			if got := Coin(p, i^99, vals...); got != (u < p) {
				t.Fatalf("Coin(%g, %d, %v) = %v, Hash says %v", p, i^99, vals, got, u < p)
			}
		}
	}
}

func TestCoinBias(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		const trials = 20000
		for i := 0; i < trials; i++ {
			if Coin(p, 7, uint64(i)) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.02 {
			t.Errorf("Coin(%g) empirical rate %g", p, got)
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := Stream(1, 1)
	b := Stream(1, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Intn(1000) == b.Intn(1000) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("streams for different ids coincide on %d/100 draws", same)
	}
	c := Stream(1, 1)
	d := Stream(1, 1)
	for i := 0; i < 100; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("same (seed,id) stream not reproducible")
		}
	}
}

func TestQuickHashUniformHighBit(t *testing.T) {
	// The top bit of Hash should be unbiased over random inputs.
	ones := 0
	total := 0
	f := func(x, y uint64) bool {
		total++
		if Hash(x, y)>>63 == 1 {
			ones++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
	ratio := float64(ones) / float64(total)
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("high-bit ratio %g, want ~0.5", ratio)
	}
}

// TestSplitMixMatchesStream: the concrete stream draws exactly what the
// *rand.Rand built on it draws, so a generator may swap one for the other
// without changing its output.
func TestSplitMixMatchesStream(t *testing.T) {
	for _, seed := range []uint64{0, 1, 3, 0xdeadbeef} {
		r := Stream(seed, 0x636c)
		s := NewSplitMix(seed, 0x636c)
		for i := 0; i < 10000; i++ {
			if got, want := s.Float64(), r.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, got, want)
			}
		}
		if got, want := s.Uint64(), r.Uint64(); got != want {
			t.Fatalf("seed %d: Uint64 = %#x, want %#x", seed, got, want)
		}
	}
}
