package core

import (
	"fmt"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

// PushPullMode selects the exchange direction of the random phone call
// protocol.
type PushPullMode int

const (
	// ModePushPull is the full protocol of Section 4.1: the request carries
	// the caller's knowledge and the response carries the callee's.
	ModePushPull PushPullMode = iota + 1
	// ModePushOnly disables the pull direction (the response carries
	// nothing). The paper's footnote 2 observes that without pull,
	// dissemination needs Ω(nD) time on a star; the ablation demonstrates it.
	ModePushOnly
	// ModeLatencyBiased selects the neighbor with probability proportional
	// to 1/latency instead of uniformly — the natural "use fast edges more"
	// heuristic available when latencies are known. The ablation shows it is
	// a double-edged sword: it speeds up dense fast neighborhoods but
	// *starves* the slow cut edges the rumor must eventually cross.
	ModeLatencyBiased
)

// pushPullNode is the state-machine handler for single-source broadcast via
// the random phone call protocol: every round, call a uniformly random
// neighbor and exchange knowledge of the rumor.
type pushPullNode struct {
	sim.NodeLocal
	informed bool
	informer graph.NodeID // who delivered the rumor (-1 = source/uninformed)
	mode     PushPullMode
	weights  []float64 // cumulative 1/latency weights (ModeLatencyBiased)
}

var _ sim.Handler = (*pushPullNode)(nil)

func (n *pushPullNode) Start(ctx *sim.Context) {
	if n.mode != ModeLatencyBiased {
		return
	}
	// Precompute the cumulative 1/latency distribution (latencies known).
	n.weights = make([]float64, ctx.Degree())
	total := 0.0
	for i := range n.weights {
		lat := ctx.Neighbor(i).Latency
		if lat < 1 {
			lat = 1
		}
		total += 1 / float64(lat)
		n.weights[i] = total
	}
}

func (n *pushPullNode) Tick(ctx *sim.Context) {
	deg := ctx.Degree()
	if deg == 0 {
		return
	}
	idx := ctx.Rand().Intn(deg)
	if n.mode == ModeLatencyBiased {
		x := ctx.Rand().Float64() * n.weights[deg-1]
		for i, w := range n.weights {
			if x <= w {
				idx = i
				break
			}
		}
	}
	// One initiation per round; errors are impossible here because Tick runs
	// once per round, but keep the engine honest.
	if err := ctx.Initiate(idx, bitPayload{informed: n.informed}); err != nil {
		panic(fmt.Sprintf("core: push-pull initiate: %v", err))
	}
}

func (n *pushPullNode) OnRequest(ctx *sim.Context, req sim.Request) sim.Payload {
	p, ok := req.Payload.(bitPayload)
	if ok && p.informed && !n.informed {
		n.informed = true
		n.informer = req.From
	}
	if n.mode == ModePushOnly {
		return bitPayload{}
	}
	return bitPayload{informed: n.informed}
}

func (n *pushPullNode) OnResponse(ctx *sim.Context, resp sim.Response) {
	if p, ok := resp.Payload.(bitPayload); ok && p.informed && !n.informed {
		n.informed = true
		n.informer = resp.From
	}
}

func (n *pushPullNode) Done() bool { return false }

// BroadcastResult reports a single-source broadcast run.
type BroadcastResult struct {
	Metrics   sim.Metrics
	Completed bool
	// InformedAt[v] is the first round at which v knew the rumor (0 for the
	// source, -1 if never informed).
	InformedAt []int
	// Informer[v] is the node that first delivered the rumor to v (-1 for
	// the source and for never-informed nodes). The informer edges form the
	// infection tree of the run; nil for protocols that do not track it.
	Informer []graph.NodeID
	// Loads reports per-node traffic (initiated/answered exchanges).
	Loads []sim.NodeLoad
}

// PushPull runs the random phone call protocol from the given source until
// every node is informed, and returns the round count and message metrics
// (Theorem 12: O((ℓ*/φ*)·log n) whp).
func PushPull(g *graph.Graph, source graph.NodeID, mode PushPullMode, cfg sim.Config) (BroadcastResult, error) {
	if source < 0 || source >= g.N() {
		return BroadcastResult{}, fmt.Errorf("core: source %d out of range [0,%d)", source, g.N())
	}
	if mode == ModeLatencyBiased {
		cfg.KnownLatencies = true // the bias needs the latencies
	}
	nw := sim.NewNetwork(g, cfg)
	nodes := make([]pushPullNode, g.N())
	for u := range nodes {
		nodes[u] = pushPullNode{informed: u == source, informer: -1, mode: mode}
		nw.SetHandler(u, &nodes[u])
	}
	informedAt := make([]int, g.N())
	for u := range informedAt {
		informedAt[u] = -1
	}
	informedAt[source] = 0
	res, err := nw.Run(allInformed(nodesInformed(nodes), informedAt))
	out := BroadcastResult{Metrics: res.Metrics, Completed: res.Completed, InformedAt: informedAt, Loads: nw.Loads()}
	out.Informer = make([]graph.NodeID, g.N())
	for u := range nodes {
		out.Informer[u] = nodes[u].informer
	}
	if err != nil {
		return out, fmt.Errorf("push-pull on %v: %w", g, err)
	}
	return out, nil
}

func nodesInformed(nodes []pushPullNode) func(u int) bool {
	return func(u int) bool { return nodes[u].informed }
}

// allInformed builds the completion predicate for broadcast runs: every
// non-crashed node is informed. Crashed nodes are excluded, so broadcast
// under fault injection completes when the survivors converge. It stamps
// informedAt[u] with the round u is first seen informed, and each round
// walks only the nodes not yet stamped.
func allInformed(informed func(u int) bool, informedAt []int) sim.Predicate {
	var waiting []int32
	for u, at := range informedAt {
		if at < 0 {
			waiting = append(waiting, int32(u))
		}
	}
	return func(nw *sim.Network) bool {
		all := true
		left := waiting[:0]
		for _, u := range waiting {
			if informed(int(u)) {
				informedAt[u] = nw.Round()
				continue
			}
			left = append(left, u)
			if !nw.Crashed(int(u)) {
				all = false
			}
		}
		waiting = left
		return all
	}
}
