package core

import (
	"fmt"

	"gossip/internal/graph"
	"gossip/internal/sim"
	"gossip/internal/spanner"
)

// RRBroadcastResult reports a standalone RR Broadcast run over an oriented
// spanner (Lemma 15 / Corollary 16).
type RRBroadcastResult struct {
	Metrics      sim.Metrics
	Completed    bool // every node holds every rumor
	SpannerSize  int
	MaxOutDegree int
	Stretch      float64
	// RoundsToComplete is the first round at which dissemination was
	// complete (<= Metrics.Rounds, which includes the fixed schedule tail).
	RoundsToComplete int
}

// RRBroadcast builds a (2k_s−1)-spanner of G_k (edges with latency <= k)
// with the shared seed, orients it, and runs the RR Broadcast protocol of
// Algorithm 2 for the Lemma 15 schedule: kRR·Δ_out + kRR rounds with
// kRR = (2k_s−1)·k. With k >= D this solves all-to-all dissemination in
// O(D log² n) rounds (Corollary 16).
//
// spannerParam overrides the Baswana–Sen parameter k_s (0 = the EID default
// ⌈log₂ n⌉); it is the knob of the spanner-k ablation.
func RRBroadcast(g *graph.Graph, k, spannerParam int, cfg sim.Config) (RRBroadcastResult, error) {
	plan, err := newRRPlan(g, k, spannerParam, cfg.NHint, cfg.Seed)
	if err != nil {
		return RRBroadcastResult{}, err
	}
	cfg.KnownLatencies = true
	nw := sim.NewNetwork(g, cfg)
	states := make([]*eidState, g.N())
	for u := 0; u < g.N(); u++ {
		states[u] = &eidState{rumors: newRumorKnowledge(g.N(), u), terminatedAt: -1}
		nw.SetHandler(u, plan.proc(u, states[u]))
	}
	completeAt := -1
	res, err := nw.Run(func(nw *sim.Network) bool {
		if completeAt < 0 {
			all := true
			for _, st := range states {
				if !st.rumors.know.Full() {
					all = false
					break
				}
			}
			if all {
				completeAt = nw.Round()
			}
		}
		return false // run the full fixed schedule
	})
	out := RRBroadcastResult{
		Metrics:          res.Metrics,
		SpannerSize:      plan.sp.Size(),
		MaxOutDegree:     plan.sp.MaxOutDegree(),
		Stretch:          spanner.Stretch(plan.sub, plan.sp),
		RoundsToComplete: completeAt,
	}
	out.Completed = completeAt >= 0
	if err != nil && completeAt < 0 {
		return out, fmt.Errorf("RR broadcast on %v: %w", g, err)
	}
	return out, nil
}

// rrPlan is the part of RR Broadcast both engines share, built once per run
// from the seed every process agrees on: the spanner of G_k, each node's
// oriented out-edges as indices into its neighbor list, and the Lemma 15
// schedule of kRR·Δ_out + kRR rounds with kRR = (2k_s−1)·k.
type rrPlan struct {
	k      int
	sub    *graph.Graph // G_k
	sp     *spanner.Spanner
	out    [][]int
	rounds int
}

// newRRPlan builds the plan for G_k of g. spannerParam overrides the
// Baswana–Sen parameter k_s (0 = ⌈log₂ n̂⌉, n̂ the larger of n and nHint).
func newRRPlan(g *graph.Graph, k, spannerParam, nHint int, seed uint64) (*rrPlan, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: RR broadcast needs k >= 1, got %d", k)
	}
	nHat := g.N()
	if nHint > nHat {
		nHat = nHint
	}
	ks := spannerParam
	if ks <= 0 {
		ks = spannerK(nHat)
	}
	sub := g.Subgraph(k)
	sp, err := spanner.Build(sub, ks, nHat, seed)
	if err != nil {
		return nil, fmt.Errorf("RR broadcast spanner: %w", err)
	}
	out := make([][]int, g.N())
	for u := range out {
		for _, oe := range sp.Out[u] {
			for idx, he := range g.Neighbors(u) {
				if he.To == oe.To {
					out[u] = append(out[u], idx)
					break
				}
			}
		}
	}
	kRR := (2*ks - 1) * k
	return &rrPlan{k: k, sub: sub, sp: sp, out: out, rounds: kRR*sp.MaxOutDegree() + kRR}, nil
}

// proc is node u's RR Broadcast coroutine over st's rumors.
func (pl *rrPlan) proc(u graph.NodeID, st *eidState) *sim.Proc {
	out := pl.out[u]
	proc := sim.NewProc(func(p *sim.Proc) {
		runRR(p, st.rumors, out, knownLatencies(p), pl.k, pl.rounds)
	})
	proc.HandleRequests(knowledgeResponder(st.containers))
	proc.HandleResponses(knowledgeResponses(st.containers))
	return proc
}
