package gossip

import (
	"testing"
	"testing/quick"

	"gossip/internal/core"
	"gossip/internal/graph"
)

// randomConnectedGraph derives a small random weighted graph from a seed.
func randomConnectedGraph(seed uint64) *Graph {
	n := 6 + int(seed%10)
	maxLat := 1 + int(seed%5)
	return graph.RandomLatencies(graph.GNP(n, 0.35, 1, true, seed), 1, maxLat, seed^0x5151)
}

// TestQuickGeneralEIDInvariants quick-checks the Theorem 19 / Lemma 18
// guarantees over random weighted graphs: completion, same-round
// termination, and a final estimate within doubling of the diameter.
func TestQuickGeneralEIDInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running property check")
	}
	f := func(seed uint64) bool {
		g := randomConnectedGraph(seed)
		res, err := RunGeneralEID(g, Options{Seed: seed})
		if err != nil || !res.Completed {
			t.Logf("seed %d: err=%v completed=%v", seed, err, res.Completed)
			return false
		}
		for _, r := range res.TerminatedAt {
			if r != res.TerminatedAt[0] {
				t.Logf("seed %d: termination rounds differ", seed)
				return false
			}
		}
		d := g.WeightedDiameter()
		if res.FinalEstimate >= 4*d && d > 0 {
			t.Logf("seed %d: estimate %d overshoots 4D=%d", seed, res.FinalEstimate, 4*d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickPushPullBeatsLatencyFloor quick-checks Theorem 12's lower
// anchor: push-pull can never finish before the causal floor ⌈ecc/2⌉
// (information travels at most one latency-½ per round one-way), and always
// completes on connected graphs.
func TestQuickPushPullCausalFloor(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnectedGraph(seed)
		res, err := RunPushPull(g, 0, Options{Seed: seed})
		if err != nil || !res.Completed {
			return false
		}
		ecc := 0
		for _, d := range g.Distances(0) {
			if d > ecc {
				ecc = d
			}
		}
		return res.Metrics.Rounds >= (ecc+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickLocalBroadcastVariantsAgree quick-checks that the deterministic
// and randomized local broadcasts produce the same coverage (the knowledge
// sets may differ beyond the required neighbors, but both must cover the
// ℓ-neighborhood).
func TestQuickLocalBroadcastVariantsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running property check")
	}
	f := func(seed uint64) bool {
		g := randomConnectedGraph(seed)
		ell := 1 + int(seed%3)
		a, errA := RunLocalBroadcast(g, ell, Options{Seed: seed})
		b, errB := core.LocalBroadcastRandom(g, ell, Options{Seed: seed}.simConfig())
		if errA != nil || errB != nil || !a.Completed || !b.Completed {
			return false
		}
		for u := 0; u < g.N(); u++ {
			for _, he := range g.Neighbors(u) {
				if int(he.Lat) > ell {
					continue
				}
				if !a.Know[u][int(he.To)] || !b.Know[u][int(he.To)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
