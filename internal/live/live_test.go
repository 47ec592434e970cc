package live

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

// testTick is fast enough to keep tests snappy but coarse enough that timer
// resolution noise doesn't distort round alignment under -race.
const testTick = 500 * time.Microsecond

// bitp is the test payload: one informed bit, like core's bitPayload, with
// the same one-byte encoding so the benchmarks measure the same wire cost as
// the real protocols.
type bitp struct{ informed bool }

func (bitp) SizeBytes() int   { return 1 }
func (bitp) WireType() string { return "live_test.bit" }

func (p bitp) AppendWire(dst []byte) []byte {
	if p.informed {
		return append(dst, '1')
	}
	return append(dst, '0')
}

func init() {
	RegisterPayload(bitp{}.WireType(), func(data []byte) (sim.Payload, error) {
		if len(data) == 1 && (data[0] == '0' || data[0] == '1') {
			return bitp{informed: data[0] == '1'}, nil
		}
		return nil, fmt.Errorf("live_test: malformed bit payload %q", data)
	})
}

// ppNode is a minimal push-pull handler (mirrors core's, which is not
// importable from here without an import cycle in tests).
type ppNode struct{ informed bool }

func (n *ppNode) Start(ctx *sim.Context) {}
func (n *ppNode) Tick(ctx *sim.Context) {
	if d := ctx.Degree(); d > 0 {
		_ = ctx.Initiate(ctx.Rand().Intn(d), bitp{informed: n.informed})
	}
}
func (n *ppNode) OnRequest(ctx *sim.Context, req sim.Request) sim.Payload {
	if p, ok := req.Payload.(bitp); ok && p.informed {
		n.informed = true
	}
	return bitp{informed: n.informed}
}
func (n *ppNode) OnResponse(ctx *sim.Context, resp sim.Response) {
	if p, ok := resp.Payload.(bitp); ok && p.informed {
		n.informed = true
	}
}
func (n *ppNode) Done() bool { return false }

type ppProto struct{ source graph.NodeID }

func (p ppProto) Name() string         { return "pushpull-test" }
func (p ppProto) KnownLatencies() bool { return false }
func (p ppProto) NewHandler(u graph.NodeID) sim.Handler {
	return &ppNode{informed: u == p.source}
}
func (p ppProto) LocalDone(_ graph.NodeID, h sim.Handler) bool {
	return h.(*ppNode).informed
}

func TestInProcPushPullCompletes(t *testing.T) {
	g := graph.RingOfCliques(4, 4, 3)
	tr := NewChanTransport(g.N())
	defer tr.Close()
	res, err := Run(g, ppProto{source: 0}, tr, Options{Seed: 1, Tick: testTick})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatal("run not completed")
	}
	for u, done := range res.Done {
		if !done {
			t.Errorf("node %d not informed", u)
		}
	}
	if res.Metrics.Ticks <= 0 || res.Metrics.Requests <= 0 || res.Metrics.Responses <= 0 {
		t.Errorf("implausible metrics: %+v", res.Metrics)
	}
	if res.Metrics.Bytes < res.Metrics.Messages() {
		t.Errorf("bytes %d < messages %d despite 1-byte payloads", res.Metrics.Bytes, res.Metrics.Messages())
	}
	if res.Metrics.Wall <= 0 {
		t.Error("wall time not recorded")
	}
}

func TestSeedDeterminesChoices(t *testing.T) {
	// The runtime must hand every node the same seeded stream as the
	// simulator: node u's context stream equals rng.Stream(seed, u+1),
	// which we verify by running the same protocol under both engines on a
	// path (degree <= 2, so any divergence would strand the rumor) and
	// checking both complete.
	g := graph.Path(8, 2)
	tr := NewChanTransport(g.N())
	defer tr.Close()
	res, err := Run(g, ppProto{source: 0}, tr, Options{Seed: 7, Tick: testTick})
	if err != nil || !res.Completed {
		t.Fatalf("live path run: completed=%v err=%v", res.Completed, err)
	}
}

func TestCrashInjection(t *testing.T) {
	// Crash a middle node of a path before the rumor can pass it: the far
	// side must never be informed and the run must exhaust its budget.
	g := graph.Path(5, 1)
	tr := NewChanTransport(g.N())
	defer tr.Close()
	res, err := Run(g, ppProto{source: 0}, tr, Options{
		Seed:     3,
		Tick:     testTick,
		MaxTicks: 60,
		Crashes:  map[graph.NodeID]CrashPlan{2: {At: 1}},
	})
	if !errors.Is(err, ErrMaxTicks) {
		t.Fatalf("want ErrMaxTicks, got %v (completed=%v)", err, res.Completed)
	}
	if !res.Crashed[2] {
		t.Error("node 2 not marked crashed")
	}
	if res.Done[3] || res.Done[4] {
		t.Errorf("rumor crossed a crashed cut: done=%v", res.Done)
	}
	if !res.Done[0] {
		t.Error("source lost its own rumor")
	}
}

func TestAllCrashedCompletesVacuously(t *testing.T) {
	g := graph.Clique(3, 1)
	tr := NewChanTransport(g.N())
	defer tr.Close()
	res, err := Run(g, ppProto{source: 0}, tr, Options{
		Seed:    1,
		Tick:    testTick,
		Crashes: map[graph.NodeID]CrashPlan{0: {At: 1}, 1: {At: 1}, 2: {At: 1}},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Error("all-crashed run should complete vacuously, as in the simulator")
	}
}

func TestHostedSubsetValidation(t *testing.T) {
	g := graph.Clique(4, 1)
	tr := NewChanTransport(2) // transport only hosts nodes 0,1
	defer tr.Close()
	_, err := Run(g, ppProto{source: 0}, tr, Options{Seed: 1, Tick: testTick})
	if err == nil {
		t.Fatal("want error for unhosted nodes")
	}
	_, err = Run(g, ppProto{source: 0}, tr, Options{
		Seed: 1, Tick: testTick,
		Nodes: []graph.NodeID{0, 0},
	})
	if err == nil {
		t.Fatal("want error for duplicate hosted node")
	}
}

func TestChanTransportClosed(t *testing.T) {
	tr := NewChanTransport(2)
	tr.Close()
	if err := tr.Send(Message{To: 1}, 0); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("want ErrTransportClosed, got %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestChanTransportSinkMissCountsDrop: a send with no sink installed, and
// one the sink refuses, each count one transport drop and return at once;
// the next send, with a sink installed, is delivered.
func TestChanTransportSinkMissCountsDrop(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	send := func(tick int) {
		t.Helper()
		if err := tr.Send(Message{Kind: MsgRequest, From: 0, To: 1, SentTick: tick}, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	send(1)
	if got := tr.Faults().TransportDrops; got != 1 {
		t.Fatalf("TransportDrops = %d after a sink-less send, want 1", got)
	}
	tr.SetSink(func(Message, time.Duration) bool { return false })
	send(2)
	if got := tr.Faults().TransportDrops; got != 2 {
		t.Fatalf("TransportDrops = %d after a refused send, want 2", got)
	}
	inbox := sinkInbox(t, tr)
	send(3)
	select {
	case got := <-inbox(1):
		if got.SentTick != 3 {
			t.Fatalf("delivered tick %d, want 3", got.SentTick)
		}
	default:
		t.Fatal("send never reached the installed sink")
	}
	if got := tr.Faults().TransportDrops; got != 2 {
		t.Fatalf("TransportDrops = %d after a delivered send, want 2", got)
	}
}

// bareTransport has only Transport's three methods, with a real inbox per
// node behind Recv: no sink to install, so nothing a runtime can run on.
type bareTransport struct{ inbox []chan Message }

func (b *bareTransport) Send(Message, time.Duration) error  { return nil }
func (b *bareTransport) Recv(u graph.NodeID) <-chan Message { return b.inbox[u] }
func (b *bareTransport) Close() error                       { return nil }

// TestRunRequiresSink: Run over a transport that cannot take the runtime's
// sink — bare, or behind a FaultTransport — returns an error before any
// shard starts.
func TestRunRequiresSink(t *testing.T) {
	g := graph.Clique(4, 1)
	bare := &bareTransport{inbox: make([]chan Message, g.N())}
	for u := range bare.inbox {
		bare.inbox[u] = make(chan Message)
	}
	baseline := runtime.NumGoroutine()
	for name, tr := range map[string]Transport{
		"bare":  bare,
		"fault": NewFaultTransport(bare, FaultConfig{}),
	} {
		res, err := Run(g, ppProto{source: 0}, tr, Options{Seed: 1, Tick: testTick})
		if err == nil {
			t.Fatalf("%s: Run over a sink-less transport returned no error", name)
		}
		if res.Metrics.Ticks != 0 || res.Done != nil {
			t.Fatalf("%s: Run ran before failing: %+v", name, res.Metrics)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("%s: goroutines %d after a refused Run, baseline %d", name, n, baseline)
		}
	}
}

// TestCodecRoundTrip checks the payload codec seam: a registered type's
// decoder rebuilds what its AppendWire wrote, an unregistered name resolves
// to a decoder that fails, and Send refuses a payload that does not encode
// itself while a nil payload goes.
func TestCodecRoundTrip(t *testing.T) {
	p := bitp{informed: true}
	typ := lookupType(p.WireType())
	got, err := typ.dec(p.AppendWire(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if b, ok := got.(bitp); !ok || !b.informed {
		t.Fatalf("round trip lost the payload: %#v", got)
	}
	if _, err := lookupType("no-such-codec").dec(nil); err == nil {
		t.Fatal("want error for unknown wire name")
	}
	a, _ := tcpPair(t)
	if err := a.Send(Message{To: 1, Payload: struct{ x int }{}}, 0); err == nil {
		t.Fatal("want error for a payload that does not encode itself")
	}
	if err := a.Send(Message{To: 1}, 0); err != nil {
		t.Fatalf("nil payload: %v", err)
	}
}

func TestMetricsSimShape(t *testing.T) {
	m := Metrics{Ticks: 10, Requests: 4, Responses: 3, Bytes: 7, EdgeActivations: 4}
	sm := m.Sim()
	if sm.Rounds != 10 || sm.Messages() != 7 || sm.Bytes != 7 || sm.EdgeActivations != 4 {
		t.Fatalf("Sim() mismatch: %+v", sm)
	}
}
