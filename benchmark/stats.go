package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) — the one the driver
// applies to a set of runs — so a spread computed here matches the driver's.
// With fewer than two samples all three are the sample itself (or 0).
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the inter-quartile range as a share of the median.
func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// informedAt merges the per-tick informed-fraction curves of the runtimes of
// one run (curve k covers hosted[k] nodes, one sample per tick, and holds its
// last value once the runtime has stopped sampling) and returns the time, in
// milliseconds, at which at least share of all nodes were informed: per-node
// inform latency at tick resolution. It returns 0 when share is never reached.
func informedAt(curves [][]float64, hosted []int, tickMs, share float64) float64 {
	total, longest := 0, 0
	for k, c := range curves {
		total += hosted[k]
		if len(c) > longest {
			longest = len(c)
		}
	}
	need := share * float64(total)
	for i := 0; i < longest; i++ {
		informed := 0.0
		for k, c := range curves {
			switch {
			case i < len(c):
				informed += c[i] * float64(hosted[k])
			case len(c) > 0:
				informed += c[len(c)-1] * float64(hosted[k])
			}
		}
		if informed >= need-1e-9 {
			return float64(i+1) * tickMs
		}
	}
	return 0
}

// splitmix64 derives the graph, protocol and fault seeds from the one -seed
// argument: the same argument gives the same inputs, and streams with
// different labels do not collide.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type seeds struct {
	Base   uint64 `json:"base"`
	Graph  uint64 `json:"graph"`
	Proto  uint64 `json:"proto"`
	Faults uint64 `json:"faults"`
	Cut    uint64 `json:"cut"`
}

func deriveSeeds(base uint64) seeds {
	return seeds{
		Base:   base,
		Graph:  splitmix64(base ^ 0x67726170), // "grap"
		Proto:  splitmix64(base ^ 0x70726f74), // "prot"
		Faults: splitmix64(base ^ 0x6661756c), // "faul"
		Cut:    splitmix64(base ^ 0x63757420), // "cut "
	}
}
