package core

import (
	"fmt"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

// floodNode implements simple flooding under the one-initiation-per-round
// constraint: once informed, a node contacts each of its neighbors once, one
// per round, in neighbor-list order. Since exchanges are bidirectional, the
// responder also learns the rumor, so flooding completes in
// O(D + Δ·ℓ_max)-ish time and serves as the deterministic baseline.
type floodNode struct {
	sim.NodeLocal
	informed bool
	next     int // next neighbor index to contact
}

var _ sim.Handler = (*floodNode)(nil)

func (n *floodNode) Start(ctx *sim.Context) {}

func (n *floodNode) Tick(ctx *sim.Context) {
	if !n.informed || n.next >= ctx.Degree() {
		return
	}
	if err := ctx.Initiate(n.next, bitPayload{informed: true}); err != nil {
		panic(fmt.Sprintf("core: flood initiate: %v", err))
	}
	n.next++
}

func (n *floodNode) OnRequest(ctx *sim.Context, req sim.Request) sim.Payload {
	if p, ok := req.Payload.(bitPayload); ok && p.informed {
		n.informed = true
	}
	return bitPayload{informed: n.informed}
}

func (n *floodNode) OnResponse(ctx *sim.Context, resp sim.Response) {
	if p, ok := resp.Payload.(bitPayload); ok && p.informed {
		n.informed = true
	}
}

func (n *floodNode) Done() bool { return false }

// Flood broadcasts from source by flooding and returns when every node is
// informed.
func Flood(g *graph.Graph, source graph.NodeID, cfg sim.Config) (BroadcastResult, error) {
	if source < 0 || source >= g.N() {
		return BroadcastResult{}, fmt.Errorf("core: source %d out of range [0,%d)", source, g.N())
	}
	nw := sim.NewNetwork(g, cfg)
	nodes := make([]floodNode, g.N())
	for u := range nodes {
		nodes[u].informed = u == source
		nw.SetHandler(u, &nodes[u])
	}
	informedAt := make([]int, g.N())
	for u := range informedAt {
		informedAt[u] = -1
	}
	informedAt[source] = 0
	res, err := nw.Run(allInformed(func(u int) bool { return nodes[u].informed }, informedAt))
	out := BroadcastResult{Metrics: res.Metrics, Completed: res.Completed, InformedAt: informedAt}
	if err != nil {
		return out, fmt.Errorf("flood on %v: %w", g, err)
	}
	return out, nil
}
