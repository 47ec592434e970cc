package gossip

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gossip/internal/graph"
	"gossip/internal/live"
	"gossip/internal/sim"
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
				Linger: 100 * time.Millisecond,
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
	g := graph.Grid(4, 4, 1)
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

// clusterDone is a live protocol whose local goal is the whole cluster's:
// a node counts as done only once every node of the graph reached the
// inner protocol's goal. Two runtimes driving one small graph stay active
// (initiating, not lingering) until the broadcast is over everywhere — as
// the lockstep simulator's nodes do.
type clusterDone struct {
	LiveProtocol
	done []atomic.Bool
}

func (p *clusterDone) LocalDone(u NodeID, h sim.Handler) bool {
	p.done[u].Store(p.LiveProtocol.LocalDone(u, h))
	for i := range p.done {
		if !p.done[i].Load() {
			return false
		}
	}
	return true
}

// TestLiveLatencyEdgeMatchesSim is the live twin of internal/sim's
// TestExchangeRoundTripEqualsLatency: two runtimes over unix sockets, one
// node each, joined by a single ℓ = 8 edge and paced at a 10 ms tick. The
// request's ⌈ℓ/2⌉ ticks ride the wire and are waited out on the receiver's
// calendar, so the broadcast completes in the simulator's rounds on the
// same seed, give or take the one tick two runtimes' clocks may disagree by.
func TestLiveLatencyEdgeMatchesSim(t *testing.T) {
	if testing.Short() {
		t.Skip("paced two-runtime run is not -short friendly")
	}
	b := NewGraph(2)
	if _, err := b.AddEdge(0, 1, 8); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	const seed = 7
	simRes, err := RunPushPull(g, 0, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "gsp")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	var trs [2]*live.TCPTransport
	addrs := make(map[NodeID]string, 2)
	for i := range trs {
		path := filepath.Join(dir, fmt.Sprintf("%d.sock", i))
		tr, err := live.NewUnixTransport(path, []NodeID{NodeID(i)})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[i] = tr
		addrs[NodeID(i)] = "unix://" + path
	}
	proto := &clusterDone{LiveProtocol: LivePushPull(0), done: make([]atomic.Bool, g.N())}
	var wg sync.WaitGroup
	var results [2]LiveResult
	var errs [2]error
	for i := range trs {
		trs[i].SetPeers(addrs)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunLiveTransport(g, proto, trs[i], LiveOptions{
				Seed: seed, Tick: 10 * time.Millisecond, Nodes: []NodeID{NodeID(i)},
			})
		}(i)
	}
	wg.Wait()
	for i := range trs {
		if errs[i] != nil || !results[i].Completed {
			t.Fatalf("runtime %d: completed=%v err=%v", i, results[i].Completed, errs[i])
		}
	}
	ticks := results[1].Metrics.Ticks
	if d := ticks - simRes.Metrics.Rounds; d < -1 || d > 1 {
		t.Errorf("informed after %d ticks live, %d rounds simulated: off by more than one tick", ticks, simRes.Metrics.Rounds)
	}
	t.Logf("sim %d rounds (node 1 informed at %d); live %d / %d ticks", simRes.Metrics.Rounds, simRes.InformedAt[1], results[0].Metrics.Ticks, ticks)
}

// TestLiveRRBroadcastOverUnixSockets runs RR Broadcast on two runtimes joined
// by unix sockets, so its knowledge sets cross a real connection as
// core.rumors payloads: the fixed schedule must complete all-to-all
// dissemination, every node holding every rumor.
func TestLiveRRBroadcastOverUnixSockets(t *testing.T) {
	g := RingOfCliques(4, 4, 2) // 16 nodes; each runtime hosts two cliques
	const seed = 3
	rr, err := LiveRRBroadcast(g, 2, 0, LiveOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "gsp")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	var halves [2][]NodeID
	for u := 0; u < g.N(); u++ {
		halves[u/4%2] = append(halves[u/4%2], NodeID(u)) // cliques alternate
	}
	var trs [2]*live.TCPTransport
	addrs := make(map[NodeID]string, g.N())
	for i, nodes := range halves {
		path := filepath.Join(dir, fmt.Sprintf("%d.sock", i))
		tr, err := live.NewUnixTransport(path, nodes)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[i] = tr
		for _, u := range nodes {
			addrs[u] = "unix://" + path
		}
	}
	proto := &clusterDone{LiveProtocol: rr, done: make([]atomic.Bool, g.N())}
	var wg sync.WaitGroup
	var results [2]LiveResult
	var errs [2]error
	for i := range trs {
		trs[i].SetPeers(addrs)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunLiveTransport(g, proto, trs[i], LiveOptions{
				Seed: seed, Tick: 2 * time.Millisecond, MaxTicks: 4000, Nodes: halves[i],
			})
		}(i)
	}
	wg.Wait()
	var bytes, msgs int64
	for i, tr := range trs {
		if errs[i] != nil || !results[i].Completed {
			t.Fatalf("runtime %d: completed=%v err=%v", i, results[i].Completed, errs[i])
		}
		for _, u := range halves[i] {
			if !results[i].Done[u] {
				t.Errorf("node %d missing rumors after RR broadcast", u)
			}
		}
		bytes += tr.WireBytesOut()
		msgs += tr.WireMsgsOut()
	}
	if msgs == 0 {
		t.Fatal("no message crossed the sockets")
	}
	t.Logf("%d messages crossed the sockets in %d wire bytes", msgs, bytes)
}
