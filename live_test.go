package gossip

import (
	"sync"
	"testing"
	"time"

	"gossip/internal/live"
)

// TestLiveMatchesSimPushPull is the sim/live equivalence check: a seeded
// push-pull run must reach the same informed set under the lockstep round
// simulator and the wall-clock in-process live runtime, with message counts
// of the same order. (Both engines drive the identical state machine with
// identical per-node random streams; wall-clock jitter perturbs round
// alignment, hence a bounded ratio rather than equality on counts.)
func TestLiveMatchesSimPushPull(t *testing.T) {
	graphs := map[string]*Graph{
		"ringcliques": RingOfCliques(8, 8, 4), // 64 nodes, slow bridges
		"dumbbell":    Dumbbell(8, 6),         // 16 nodes, one slow bridge
	}
	const seed = 42
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			simRes, err := RunPushPull(g, 0, Options{Seed: seed})
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}
			liveRes, err := RunLive(g, LivePushPull(0), LiveOptions{Seed: seed, Tick: time.Millisecond})
			if err != nil {
				t.Fatalf("live run: %v", err)
			}
			if !liveRes.Completed {
				t.Fatal("live run not completed")
			}
			// Same informed set: the simulator informed every node (it ran to
			// completion), so the live run must too.
			for u := 0; u < g.N(); u++ {
				if simInformed := simRes.InformedAt[u] >= 0; simInformed != liveRes.Done[u] {
					t.Errorf("node %d: sim informed=%v live informed=%v", u, simInformed, liveRes.Done[u])
				}
			}
			// Message count within bounds: same protocol, same seed, so the
			// live count may only drift by scheduling jitter.
			simMsgs, liveMsgs := simRes.Metrics.Messages(), liveRes.Metrics.Messages()
			if liveMsgs == 0 || liveMsgs > 12*simMsgs || simMsgs > 12*liveMsgs {
				t.Errorf("message counts diverged: sim=%d live=%d", simMsgs, liveMsgs)
			}
			t.Logf("%s: sim %d rounds / %d msgs; live %d ticks / %d msgs in %v",
				name, simRes.Metrics.Rounds, simMsgs, liveRes.Metrics.Ticks, liveMsgs, liveRes.Metrics.Wall)
		})
	}
}

// TestRunLiveTCPRingOfCliques is the acceptance check for the second
// transport: push-pull on the 64-node ring of cliques completes over real
// TCP loopback sockets, with the cluster split across two runtimes.
func TestRunLiveTCPRingOfCliques(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster run is not -short friendly")
	}
	g := RingOfCliques(8, 8, 4)
	half := g.N() / 2
	var hosted [2][]NodeID
	for u := 0; u < g.N(); u++ {
		hosted[u/half] = append(hosted[u/half], NodeID(u))
	}

	var trs [2]*live.TCPTransport
	addrs := make(map[NodeID]string, g.N())
	for i := range trs {
		tr, err := NewLiveTCPTransport("127.0.0.1:0", hosted[i])
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		defer tr.Close()
		trs[i] = tr
		for _, u := range hosted[i] {
			addrs[u] = tr.Addr().String()
		}
	}
	for i := range trs {
		trs[i].SetPeers(addrs)
	}

	var wg sync.WaitGroup
	var results [2]LiveResult
	var errs [2]error
	for i := range trs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunLiveTransport(g, LivePushPull(0), trs[i], LiveOptions{
				Seed:   9,
				Tick:   time.Millisecond,
				Nodes:  hosted[i],
				Linger: 2 * time.Second,
			})
		}(i)
	}
	wg.Wait()

	for i := range trs {
		if errs[i] != nil {
			t.Fatalf("runtime %d: %v", i, errs[i])
		}
		if !results[i].Completed {
			t.Errorf("runtime %d did not complete", i)
		}
		for _, u := range hosted[i] {
			if !results[i].Done[u] {
				t.Errorf("node %d not informed over TCP", u)
			}
		}
	}
}

// TestLiveFloodCompletes exercises the second live protocol end to end.
func TestLiveFloodCompletes(t *testing.T) {
	g := Grid(4, 4, 1)
	res, err := RunLive(g, LiveFlood(0), LiveOptions{Seed: 5, Tick: 500 * time.Microsecond})
	if err != nil {
		t.Fatalf("RunLive flood: %v", err)
	}
	for u := 0; u < g.N(); u++ {
		if !res.Done[u] {
			t.Errorf("node %d not informed by flood", u)
		}
	}
}

// TestRunLiveCrashInjection checks fail-stop injection through the public
// API: crashing the only bridge endpoint of a dumbbell strands the far side.
func TestRunLiveCrashInjection(t *testing.T) {
	g := Dumbbell(4, 2) // nodes 0..3 and 4..7; bridge between 3 and 4
	bridge := bridgeEndpoint(t, g)
	res, err := RunLive(g, LivePushPull(0), LiveOptions{
		Seed:     2,
		Tick:     500 * time.Microsecond,
		MaxTicks: 100,
		Crashes:  map[NodeID]LiveCrash{bridge: {At: 1}},
	})
	if err == nil && res.Completed {
		t.Fatal("run completed across a crashed bridge")
	}
	if !res.Crashed[bridge] {
		t.Errorf("bridge node %d not marked crashed", bridge)
	}
}

// bridgeEndpoint finds the left endpoint of the dumbbell's bridge: the node
// in the source's clique with an edge leaving it.
func bridgeEndpoint(t *testing.T, g *Graph) NodeID {
	t.Helper()
	half := g.N() / 2
	for u := 0; u < half; u++ {
		for _, he := range g.Neighbors(u) {
			if int(he.To) >= half {
				return NodeID(u)
			}
		}
	}
	t.Fatal("no bridge found")
	return -1
}
