package gossip

import (
	"testing"

	"gossip/internal/cut"
	"gossip/internal/graph"
)

// TestPublicAPISurface exercises every public runner end to end on small
// graphs — the quickstart paths a downstream user hits first.
func TestPublicAPISurface(t *testing.T) {
	g := RingOfCliques(3, 5, 2)
	opts := Options{Seed: 1}

	pp, err := RunPushPull(g, 0, opts)
	if err != nil || !pp.Completed {
		t.Fatalf("RunPushPull: %v completed=%v", err, pp.Completed)
	}
	fl, err := RunFlood(g, 0, opts)
	if err != nil || !fl.Completed {
		t.Fatalf("RunFlood: %v", err)
	}
	lb, err := RunLocalBroadcast(g, 2, opts)
	if err != nil || !lb.Completed {
		t.Fatalf("RunLocalBroadcast: %v", err)
	}
	d := g.WeightedDiameter()
	rr, err := RunRRBroadcast(g, d, 0, opts)
	if err != nil || !rr.Completed {
		t.Fatalf("RunRRBroadcast: %v", err)
	}
	eid, err := RunEID(g, d, opts)
	if err != nil || !eid.Completed {
		t.Fatalf("RunEID: %v", err)
	}
	gen, err := RunGeneralEID(g, opts)
	if err != nil || !gen.Completed {
		t.Fatalf("RunGeneralEID: %v", err)
	}
	ts, err := RunTSequence(g, d, opts)
	if err != nil || !ts.Completed {
		t.Fatalf("RunTSequence: %v", err)
	}
	pd, err := RunPathDiscovery(g, opts)
	if err != nil || !pd.Completed {
		t.Fatalf("RunPathDiscovery: %v", err)
	}
	de, err := RunDiscoverEID(g, opts)
	if err != nil || !de.Completed {
		t.Fatalf("RunDiscoverEID: %v", err)
	}
	uni, err := RunUnified(g, 0, true, opts)
	if err != nil {
		t.Fatalf("RunUnified: %v", err)
	}
	if uni.Winner == "" || uni.Rounds == 0 {
		t.Errorf("RunUnified result incomplete: %+v", uni)
	}

	wc, err := WeightedConductance(g, 1)
	if err != nil {
		t.Fatalf("WeightedConductance: %v", err)
	}
	if wc.PhiStar <= 0 || wc.EllStar < 1 {
		t.Errorf("conductance = %+v", wc)
	}
	if _, err := cut.PhiCut(g, []NodeID{0, 1, 2, 3, 4}, 2); err != nil {
		t.Fatalf("PhiCut: %v", err)
	}
}

func TestPublicGadgets(t *testing.T) {
	if _, err := graph.NewGadget(4, nil, true, 8); err != nil {
		t.Errorf("NewGadget: %v", err)
	}
	if _, err := NewTheoremSixNetwork(16, 4, 1); err != nil {
		t.Errorf("NewTheoremSixNetwork: %v", err)
	}
	if _, err := graph.NewTheoremSevenNetwork(8, 0.3, 2, 1); err != nil {
		t.Errorf("NewTheoremSevenNetwork: %v", err)
	}
	if _, err := graph.NewRingNetwork(32, 0.25, 2, 1); err != nil {
		t.Errorf("NewRingNetwork: %v", err)
	}
}

func TestPushOnlyBaseline(t *testing.T) {
	g := graph.Star(32, 1)
	po, err := RunPushOnly(g, 1, Options{Seed: 3, MaxRounds: 100000})
	if err != nil || !po.Completed {
		t.Fatalf("RunPushOnly: %v", err)
	}
	pp, err := RunPushPull(g, 1, Options{Seed: 3})
	if err != nil {
		t.Fatalf("RunPushPull: %v", err)
	}
	if po.Metrics.Rounds <= pp.Metrics.Rounds {
		t.Errorf("push-only (%d) should be slower than push-pull (%d)",
			po.Metrics.Rounds, pp.Metrics.Rounds)
	}
}
