package core

import (
	"fmt"
	"math"

	"gossip/internal/graph"
	"gossip/internal/sim"
	"gossip/internal/spanner"
)

// eidState bundles the knowledge containers of an EID node. The request
// handler dispatches incoming payloads by type, so phases of different nodes
// may overlap without confusion.
type eidState struct {
	rumors  *rumorKnowledge
	nb      *nbKnowledge
	status  *statusKnowledge
	session *dtgSession // active DTG invocation, if any

	terminatedAt  int  // round at which General EID terminated (-1 while running)
	finalEstimate int  // last diameter estimate used by General EID
	gaveUp        bool // safety valve tripped (never expected)
}

func (st *eidState) containers() []knowledge {
	ks := make([]knowledge, 0, 4)
	if st.session != nil {
		ks = append(ks, st.session)
	}
	ks = append(ks, st.rumors)
	if st.nb != nil {
		ks = append(ks, st.nb)
	}
	if st.status != nil {
		ks = append(ks, st.status)
	}
	return ks
}

// spannerK returns the Baswana–Sen parameter k = ⌈log₂ n̂⌉ used by EID.
func spannerK(nHat int) int {
	k := int(math.Ceil(math.Log2(float64(nHat))))
	if k < 2 {
		k = 2
	}
	return k
}

// outDegreeBound is the whp bound on the spanner out-degree that nodes use
// to size the RR Broadcast schedule (Lemma 13: O(log n) for k = log n). If
// the realized out-degree ever exceeded it, the RR schedule would fall short
// and the termination check would force a retry, so the constant is safe to
// keep tight.
func outDegreeBound(nHat int) int { return 2 * (spannerK(nHat) + 1) }

// rrSchedule returns (kRR, rounds) for RR Broadcast after building a
// (2k_s−1)-spanner with distance estimate d: any two nodes within weighted
// distance d of each other are within kRR in the spanner, and by Lemma 15
// kRR·Δ_out + kRR rounds complete the exchange.
func rrSchedule(d, nHat int) (kRR, rounds int) {
	ks := spannerK(nHat)
	kRR = (2*ks - 1) * d
	rounds = kRR*outDegreeBound(nHat) + kRR
	return kRR, rounds
}

// runEID executes one EID(d) attempt (Algorithm 3) on the subgraph of edges
// with latency <= d:
//
//  1. gather the O(log n)-hop neighborhood by repeating budgeted d-DTG;
//  2. locally run the shared-randomness Baswana–Sen construction on the
//     gathered ball and keep this node's out-edges;
//  3. RR Broadcast rumor sets over the oriented spanner.
//
// It returns the node's spanner out-edge indices (used again by the
// termination check). Every step takes the same fixed number of rounds at
// every node, so nodes stay aligned.
func runEID(p *sim.Proc, st *eidState, lat latFunc, d, nHat int, seed uint64) []int {
	_, out := gatherAndBuildSpanner(p, st, lat, d, nHat, seed)
	_, rounds := rrSchedule(d, nHat)
	runRR(p, st.rumors, out, lat, d, rounds)
	return out
}

// gatherAndBuildSpanner performs EID's first two steps: gather the
// O(log n)-hop neighborhood by repeated budgeted d-DTG, then locally run the
// shared-randomness spanner construction on the gathered ball. It returns
// the locally computed spanner and this node's out-edge indices.
func gatherAndBuildSpanner(p *sim.Proc, st *eidState, lat latFunc, d, nHat int, seed uint64) (*spanner.Spanner, []int) {
	ks := spannerK(nHat)
	// Fresh gathering each attempt: latency knowledge may have improved and
	// stale partial adjacency entries must not survive.
	own := make([]graph.Entry, 0, p.Degree())
	for _, e := range p.Neighbors() {
		if l := lat(e.Index); l != unknownLatency {
			own = append(own, graph.Entry{To: int32(e.To), Lat: int32(l), ID: int32(e.EdgeID)})
		}
	}
	st.nb = newNbKnowledge(p.ID(), own)
	reps := ks + 2
	for i := 0; i < reps; i++ {
		runDTG(p, st, st.nb, lat, d, dtgBudget(d, nHat))
	}
	// Local computation (zero rounds): build the ball restricted to edges of
	// latency <= d and run the spanner construction with the shared seed.
	ball := st.nb.buildGraph(nHat, d)
	sp, err := spanner.Build(ball, ks, nHat, seed)
	if err != nil {
		// Only possible through a programming error in parameters.
		panic(fmt.Sprintf("core: spanner build: %v", err))
	}
	toIdx := make(map[graph.NodeID]int, p.Degree())
	for _, e := range p.Neighbors() {
		toIdx[e.To] = e.Index
	}
	var out []int
	for _, oe := range sp.Out[p.ID()] {
		if idx, ok := toIdx[oe.To]; ok {
			out = append(out, idx)
		}
	}
	return sp, out
}

// runTerminationCheck implements Algorithm 1 for estimate d: an extra d-DTG
// (which guarantees the node exchanged rumors with every d-neighbor), flag
// computation, a gather broadcast of (digest, flag) statuses over the
// spanner, the local failure decision, and a second broadcast propagating
// "failed". It reports whether the node may terminate.
func runTerminationCheck(p *sim.Proc, st *eidState, lat latFunc, d, nHat int, out []int, phase int) bool {
	complete := runDTG(p, st, st.rumors, lat, d, dtgBudget(d, nHat))
	flag := !complete
	for _, e := range p.Neighbors() {
		if !st.rumors.Has(e.To) {
			flag = true
			break
		}
	}
	digest := st.rumors.digest()
	_, rounds := rrSchedule(d, nHat)

	st.status = newStatusKnowledge(2*phase, p.ID(), nodeStatus{Digest: digest, Flag: flag})
	runRR(p, st.status, out, lat, d, rounds)
	failed := st.statusConflicts(digest)

	st.status = newStatusKnowledge(2*phase+1, p.ID(), nodeStatus{Digest: digest, Failed: failed})
	runRR(p, st.status, out, lat, d, rounds)
	failed = failed || st.statusConflicts(digest)
	st.status = nil
	return !failed
}

// statusConflicts applies the termination test of Algorithm 1 to the
// gathered status table: the node must continue if any gathered entry has a
// raised flag, a failed bit, or a rumor set differing from its own — or if
// it is *missing* the status of some node whose rumor it holds. The missing
// case is the fail-safe realizing Lemma 18's requirement that a node hears
// back from everyone it exchanged rumors with before terminating: without
// it, a node in a well-disseminated pocket could terminate before a distant
// straggler's complaint arrives.
func (st *eidState) statusConflicts(digest uint64) bool {
	conflict := false
	for _, s := range st.status.entries {
		if s.Flag || s.Failed || s.Digest != digest {
			conflict = true
			break
		}
	}
	if !conflict {
		st.rumors.know.ForEach(func(id int) bool {
			if _, ok := st.status.entries[id]; !ok {
				conflict = true
				return false
			}
			return true
		})
	}
	return conflict
}

// maxDoubling caps the guess-and-double loop as a safety valve; the loop
// normally terminates as soon as the estimate reaches the weighted diameter.
const maxDoubling = 30

// AllToAllResult reports an all-to-all information dissemination run.
type AllToAllResult struct {
	Metrics   sim.Metrics
	Completed bool // every node holds every rumor
	// TerminatedAt[v] is the round at which v's protocol terminated
	// (General EID only; -1 when the protocol has no local termination).
	TerminatedAt []int
	// FinalEstimate is the last diameter estimate used (General EID only).
	FinalEstimate int
}

// EID solves all-to-all information dissemination with known latencies and
// known weighted diameter D (Lemma 17: O(D log³ n) rounds).
func EID(g *graph.Graph, d int, cfg sim.Config) (AllToAllResult, error) {
	if d < 1 {
		return AllToAllResult{}, fmt.Errorf("core: EID needs D >= 1, got %d", d)
	}
	cfg.KnownLatencies = true
	nw := sim.NewNetwork(g, cfg)
	states := attachEIDProcs(nw, g, func(p *sim.Proc, st *eidState, lat latFunc) {
		runEID(p, st, lat, d, nwHint(nw, g), cfg.Seed)
	})
	res, err := nw.Run(nil)
	out := collectAllToAll(res.Metrics, states)
	out.FinalEstimate = d
	if err != nil {
		return out, fmt.Errorf("EID(D=%d) on %v: %w", d, g, err)
	}
	return out, nil
}

// GeneralEID solves all-to-all dissemination with known latencies but
// unknown diameter via guess-and-double with termination detection
// (Algorithm 4, Theorem 19: O(D log³ n) rounds).
func GeneralEID(g *graph.Graph, cfg sim.Config) (AllToAllResult, error) {
	cfg.KnownLatencies = true
	nw := sim.NewNetwork(g, cfg)
	states := attachEIDProcs(nw, g, func(p *sim.Proc, st *eidState, lat latFunc) {
		nHat := nwHint(nw, g)
		d := 1
		for phase := 0; ; phase++ {
			out := runEID(p, st, lat, d, nHat, cfg.Seed)
			if runTerminationCheck(p, st, lat, d, nHat, out, phase) {
				st.terminatedAt = p.Round()
				st.finalEstimate = d
				return
			}
			d *= 2
			if phase >= maxDoubling {
				st.gaveUp = true
				return
			}
		}
	})
	res, err := nw.Run(nil)
	out := collectAllToAll(res.Metrics, states)
	for _, st := range states {
		if st.finalEstimate > out.FinalEstimate {
			out.FinalEstimate = st.finalEstimate
		}
		if st.gaveUp {
			out.Completed = false
			err = fmt.Errorf("general EID on %v: doubling safety valve tripped", g)
		}
	}
	if err != nil {
		return out, fmt.Errorf("general EID: %w", err)
	}
	return out, nil
}

func nwHint(nw *sim.Network, g *graph.Graph) int {
	// Nodes know a polynomial upper bound on n (Section 5.1); the engine
	// exposes it as NHint via contexts, but the proc factory needs it before
	// procs start. NHint defaults to n.
	return nw.NHint()
}

// attachEIDProcs wires one EID proc with dispatching handlers per node and
// returns their states.
func attachEIDProcs(nw *sim.Network, g *graph.Graph, body func(p *sim.Proc, st *eidState, lat latFunc)) []*eidState {
	states := make([]*eidState, g.N())
	for u := 0; u < g.N(); u++ {
		st := &eidState{
			rumors:       newRumorKnowledge(g.N(), u),
			terminatedAt: -1,
		}
		states[u] = st
		containers := st.containers
		proc := sim.NewProc(func(p *sim.Proc) {
			body(p, st, knownLatencies(p))
		})
		proc.HandleRequests(knowledgeResponder(containers))
		proc.HandleResponses(knowledgeResponses(containers))
		nw.SetHandler(u, proc)
	}
	return states
}

func collectAllToAll(m sim.Metrics, states []*eidState) AllToAllResult {
	out := AllToAllResult{Metrics: m, Completed: true}
	out.TerminatedAt = make([]int, len(states))
	for u, st := range states {
		out.TerminatedAt[u] = st.terminatedAt
		if !st.rumors.know.Full() {
			out.Completed = false
		}
	}
	return out
}
