package core

import (
	"fmt"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

// TreeBroadcastResult reports a shortest-path-tree broadcast run.
type TreeBroadcastResult struct {
	Metrics          sim.Metrics
	Completed        bool
	Depth            int // weighted depth of the tree
	MaxOutDegree     int // maximum child count
	RoundsToComplete int
	// Loads reports per-node traffic (initiated/answered exchanges).
	Loads []sim.NodeLoad
}

// TreeBroadcast is the natural alternative to the spanner machinery: build
// the shortest-path tree rooted at root (centralized, as a best-case
// baseline — a real system would need O(D) distributed BFS), orient edges
// parent→child plus child→parent, and run the RR Broadcast loop over the
// tree. All-to-all dissemination completes, but the out-degree is the tree
// fan-out — unbounded in general (a star's root has n−1 children), which is
// exactly why EID pays for a spanner with O(log n) *oriented out-degree*
// instead. The ablation experiment quantifies the difference.
func TreeBroadcast(g *graph.Graph, root graph.NodeID, cfg sim.Config) (TreeBroadcastResult, error) {
	if root < 0 || root >= g.N() {
		return TreeBroadcastResult{}, fmt.Errorf("core: tree root %d out of range [0,%d)", root, g.N())
	}
	cfg.KnownLatencies = true
	parentEdge, depth, err := shortestPathTree(g, root)
	if err != nil {
		return TreeBroadcastResult{}, err
	}
	// Orient every tree edge out of the child: each node round-robins over
	// its single parent edge (the root has none), so Δ_out = 1 and upward
	// traffic carries rumor sets; responses carry them back down.
	// Additionally parents must push to children to cut the downward
	// latency, so each node also owns its child edges.
	out := make([][]int, g.N())
	maxOut := 0
	for v := 0; v < g.N(); v++ {
		if v != root && parentEdge[v] >= 0 {
			out[v] = append(out[v], parentEdge[v])
		}
	}
	for v := 0; v < g.N(); v++ {
		for idx, he := range g.Neighbors(v) {
			if to := int(he.To); to != root && parentEdge[to] >= 0 {
				// v is to's parent iff to's parent edge leads to v.
				pe := g.Neighbors(to)[parentEdge[to]]
				if int(pe.To) == v {
					out[v] = append(out[v], idx)
				}
			}
		}
		if len(out[v]) > maxOut {
			maxOut = len(out[v])
		}
	}

	kRR := 2 * depth
	if kRR < 1 {
		kRR = 1
	}
	rounds := kRR*maxOut + kRR

	nw := sim.NewNetwork(g, cfg)
	states := make([]*eidState, g.N())
	for u := 0; u < g.N(); u++ {
		st := &eidState{rumors: newRumorKnowledge(g.N(), u), terminatedAt: -1}
		states[u] = st
		edges := out[u]
		containers := st.containers
		proc := sim.NewProc(func(p *sim.Proc) {
			runRR(p, st.rumors, edges, knownLatencies(p), depth, rounds)
		})
		proc.HandleRequests(knowledgeResponder(containers))
		proc.HandleResponses(knowledgeResponses(containers))
		nw.SetHandler(u, proc)
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
		return false
	})
	outRes := TreeBroadcastResult{
		Metrics:          res.Metrics,
		Depth:            depth,
		MaxOutDegree:     maxOut,
		RoundsToComplete: completeAt,
		Completed:        completeAt >= 0,
		Loads:            nw.Loads(),
	}
	if err != nil && completeAt < 0 {
		return outRes, fmt.Errorf("tree broadcast on %v: %w", g, err)
	}
	return outRes, nil
}

// shortestPathTree returns, for every node, the index (in its neighbor
// list) of the edge toward its parent on a shortest path to root (-1 for
// the root), plus the weighted depth of the tree.
func shortestPathTree(g *graph.Graph, root graph.NodeID) ([]int, int, error) {
	dist := g.Distances(root)
	parentEdge := make([]int, g.N())
	depth := 0
	for v := 0; v < g.N(); v++ {
		parentEdge[v] = -1
		if v == root {
			continue
		}
		if dist[v] >= graph.Inf {
			return nil, 0, fmt.Errorf("core: node %d unreachable from root %d", v, root)
		}
		if dist[v] > depth {
			depth = dist[v]
		}
		for idx, he := range g.Neighbors(v) {
			if dist[he.To]+int(he.Lat) == dist[v] {
				parentEdge[v] = idx
				break
			}
		}
		if parentEdge[v] < 0 {
			return nil, 0, fmt.Errorf("core: no tree parent for node %d", v)
		}
	}
	return parentEdge, depth, nil
}
