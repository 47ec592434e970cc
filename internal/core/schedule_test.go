package core

import (
	"testing"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

func TestSpannerKValues(t *testing.T) {
	tests := []struct {
		nHat, want int
	}{
		{nHat: 2, want: 2}, // floor at 2
		{nHat: 4, want: 2},
		{nHat: 5, want: 3},
		{nHat: 64, want: 6},
		{nHat: 100, want: 7},
	}
	for _, tt := range tests {
		if got := spannerK(tt.nHat); got != tt.want {
			t.Errorf("spannerK(%d) = %d, want %d", tt.nHat, got, tt.want)
		}
	}
}

func TestDTGBudgetMonotone(t *testing.T) {
	// Budget grows linearly in ℓ and polylog in n̂; all nodes must agree, so
	// it is a pure function.
	if dtgBudget(2, 16) != 2*dtgBudget(1, 16) {
		t.Errorf("budget not linear in ℓ: %d vs %d", dtgBudget(2, 16), dtgBudget(1, 16))
	}
	if dtgBudget(1, 1024) <= dtgBudget(1, 16) {
		t.Error("budget must grow with n̂")
	}
	if dtgBudget(1, 16) != dtgBudget(1, 16) {
		t.Error("budget must be deterministic")
	}
}

func TestRRScheduleShape(t *testing.T) {
	kRR, rounds := rrSchedule(4, 64)
	ks := spannerK(64)
	if kRR != (2*ks-1)*4 {
		t.Errorf("kRR = %d, want (2k−1)·d = %d", kRR, (2*ks-1)*4)
	}
	if rounds != kRR*outDegreeBound(64)+kRR {
		t.Errorf("rounds = %d, want kRR·Δout+kRR", rounds)
	}
	// Doubling d doubles the schedule.
	_, r2 := rrSchedule(8, 64)
	if r2 != 2*rounds {
		t.Errorf("schedule not linear in d: %d vs %d", r2, rounds)
	}
}

func TestTRoundsRecurrence(t *testing.T) {
	nHat := 32
	if got, want := tRounds(1, nHat), dtgBudget(1, nHat); got != want {
		t.Errorf("T(1) = %d, want %d", got, want)
	}
	for k := 2; k <= 32; k *= 2 {
		want := 2*tRounds(k/2, nHat) + dtgBudget(k, nHat)
		if got := tRounds(k, nHat); got != want {
			t.Errorf("T(%d) = %d, want recurrence %d", k, got, want)
		}
	}
}

// TestRunRRFixedDuration verifies that the RR phase occupies exactly its
// scheduled rounds at every node regardless of out-edge counts — the
// alignment property multi-phase protocols rely on.
func TestRunRRFixedDuration(t *testing.T) {
	g := graph.Star(6, 2)
	nw := sim.NewNetwork(g, sim.Config{Seed: 1, KnownLatencies: true, MaxRounds: 500})
	const rounds = 24
	const ell = 2
	elapsed := make([]int, g.N())
	for u := 0; u < g.N(); u++ {
		u := u
		st := &eidState{rumors: newRumorKnowledge(g.N(), u)}
		var out []int
		if u == 0 {
			out = []int{0, 1, 2} // center owns some oriented edges
		} else if u == 1 {
			out = []int{0}
		} // other leaves own none
		containers := st.containers
		proc := sim.NewProc(func(p *sim.Proc) {
			start := p.Round()
			runRR(p, st.rumors, out, knownLatencies(p), ell, rounds)
			elapsed[u] = p.Round() - start
		})
		proc.HandleRequests(knowledgeResponder(containers))
		proc.HandleResponses(knowledgeResponses(containers))
		nw.SetHandler(u, proc)
	}
	if _, err := nw.Run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	for u, e := range elapsed {
		if e != rounds+ell {
			t.Errorf("node %d RR phase took %d rounds, want %d (alignment)", u, e, rounds+ell)
		}
	}
}

// TestRunProbeWindow verifies the discovery window: edges with latency <= b
// probed in a 2b window are learned; slower edges are not.
func TestRunProbeWindow(t *testing.T) {
	gb := graph.New(3)
	gb.MustAddEdge(0, 1, 2) // fast: learnable at b=2
	gb.MustAddEdge(0, 2, 9) // slow: not learnable at b=2
	g := gb.Build()
	nw := sim.NewNetwork(g, sim.Config{Seed: 1, MaxRounds: 100})
	dst := newDiscState()
	var window int
	p0 := sim.NewProc(func(p *sim.Proc) {
		start := p.Round()
		runProbe(p, dst, 2)
		window = p.Round() - start
	})
	p0.HandleResponses(func(p *sim.Proc, resp sim.Response) {
		dst.lat[resp.EdgeIndex] = resp.Latency
	})
	nw.SetHandler(0, p0)
	nw.SetHandler(1, sim.NewProc(func(p *sim.Proc) {}))
	nw.SetHandler(2, sim.NewProc(func(p *sim.Proc) {}))
	if _, err := nw.Run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if window != 4 {
		t.Errorf("probe window took %d rounds, want exactly 2b = 4", window)
	}
	if l, ok := dst.lat[0]; !ok || l != 2 {
		t.Errorf("fast edge latency = %d (known=%v), want 2", l, ok)
	}
	lat := dst.latFunc()
	if lat(0) != 2 {
		t.Errorf("latFunc(0) = %d", lat(0))
	}
	if lat(1) != unknownLatency {
		t.Errorf("latFunc(1) = %d, want unknown", lat(1))
	}
}
