package core

import (
	"gossip/internal/bitset"
	"gossip/internal/graph"
	"gossip/internal/sim"
)

// antiEntropyNode is the all-to-all random phone call protocol (anti-entropy
// in systems terms): every round each node exchanges its full rumor set with
// a uniformly random neighbor. It solves the same task as EID — all-to-all
// information dissemination — with O(n)-bit messages but no reliance on
// latency knowledge, spanners, or schedules, which is why it survives
// crashes (the FAULT experiment's all-to-all column).
type antiEntropyNode struct {
	sim.NodeLocal
	know *bitset.Set
}

var _ sim.Handler = (*antiEntropyNode)(nil)

func (n *antiEntropyNode) Start(ctx *sim.Context) {}

func (n *antiEntropyNode) Tick(ctx *sim.Context) {
	deg := ctx.Degree()
	if deg == 0 {
		return
	}
	// The payload is a snapshot: the engine requires immutability.
	if _, err := ctx.Initiate(ctx.Rand().Intn(deg), snapshotRumors(n.know)); err != nil {
		panic(err) // impossible: single initiation per Tick
	}
}

func (n *antiEntropyNode) OnRequest(ctx *sim.Context, req sim.Request) sim.Payload {
	if rp, ok := req.Payload.(rumorPayload); ok && rp.set != nil {
		n.know.UnionWith(rp.set)
	}
	return snapshotRumors(n.know)
}

func (n *antiEntropyNode) OnResponse(ctx *sim.Context, resp sim.Response) {
	if rp, ok := resp.Payload.(rumorPayload); ok && rp.set != nil {
		n.know.UnionWith(rp.set)
	}
}

func (n *antiEntropyNode) Done() bool { return false }

// PushPullAllToAll runs anti-entropy until every surviving node holds the
// rumor of every surviving node (crashed nodes' rumors may be lost if they
// die before any exchange). Time O((ℓ*/φ*)·log n) like single-rumor
// push-pull — payloads are sets, the schedule is identical.
func PushPullAllToAll(g *graph.Graph, cfg sim.Config) (AllToAllResult, error) {
	nw := sim.NewNetwork(g, cfg)
	nodes := make([]*antiEntropyNode, g.N())
	for u := 0; u < g.N(); u++ {
		st := &antiEntropyNode{know: bitset.New(g.N())}
		st.know.Add(u)
		nodes[u] = st
		nw.SetHandler(u, st)
	}
	// Knowledge only grows and crashes are fail-stop, so an entry once
	// settled for u (u itself, a rumor u knows, a crashed node) stays
	// settled: u's cursor resumes past them, and the nodes before first are
	// complete. A run checks each (u, v) pair once, not once per round.
	cursor := make([]int, g.N())
	first := 0
	res, err := nw.Run(func(nw *sim.Network) bool {
		for ; first < len(nodes); first++ {
			u := first
			if nw.Crashed(u) {
				continue
			}
			know, v := nodes[u].know, cursor[u]
			for v < len(nodes) && (v == u || know.Contains(v) || nw.Crashed(v)) {
				v++
			}
			cursor[u] = v
			if v < len(nodes) {
				return false
			}
		}
		return true
	})
	out := AllToAllResult{Metrics: res.Metrics, Completed: res.Completed}
	out.TerminatedAt = make([]int, g.N())
	for i := range out.TerminatedAt {
		out.TerminatedAt[i] = -1 // anti-entropy has no local termination
	}
	if err != nil {
		return out, err
	}
	return out, nil
}
