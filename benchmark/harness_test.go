package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"gossip"
	"gossip/internal/live"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPythonQuantiles(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) of Python 3.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{5, 1, 9, 3}); m != 4 {
		t.Errorf("median = %v, want 4", m)
	}
	if s := spread(9, 10, 11.5); !near(s, 0.25) {
		t.Errorf("spread = %v, want 0.25", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(p=%v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestInformedAtMergesCurvesByTick(t *testing.T) {
	// Daemon 0 hosts 100 nodes and finishes after 3 ticks; daemon 1 hosts
	// 300, lags, and keeps sampling for 5. Its curve being longer, daemon 0's
	// last value carries forward.
	curves := [][]float64{
		{0.10, 0.60, 1.00},
		{0.00, 0.10, 0.50, 0.99, 1.00},
	}
	hosted := []int{100, 300}
	// Informed nodes per tick: 10, 90, 250, 397, 400.
	if got := informedAt(curves, hosted, 10, 0.50); got != 30 {
		t.Errorf("p50 = %v ms, want 30", got)
	}
	if got := informedAt(curves, hosted, 10, 0.99); got != 40 {
		t.Errorf("p99 = %v ms, want 40", got)
	}
	if got := informedAt(curves, hosted, 10, 1); got != 50 {
		t.Errorf("p100 = %v ms, want 50", got)
	}
	if got := informedAt([][]float64{{0.2, 0.4}}, []int{10}, 10, 0.5); got != 0 {
		t.Errorf("never reached = %v, want 0", got)
	}
}

func TestSeedsAreDerivedAndDistinct(t *testing.T) {
	a, b := deriveSeeds(1), deriveSeeds(1)
	if a != b {
		t.Fatalf("same -seed gave different inputs: %+v vs %+v", a, b)
	}
	c := deriveSeeds(2)
	if a.Graph == c.Graph || a.Proto == c.Proto || a.Faults == c.Faults {
		t.Errorf("seeds 1 and 2 share a stream: %+v vs %+v", a, c)
	}
	if a.Graph == a.Proto || a.Proto == a.Faults || a.Graph == a.Faults {
		t.Errorf("streams of one seed collide: %+v", a)
	}
}

func TestPprofParserAndLayerTable(t *testing.T) {
	raw, err := os.ReadFile("testdata/pprof_top_files.txt")
	if err != nil {
		t.Fatal(err)
	}
	byFile, err := parsePprofTop(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := byFile["/root/repo/internal/live/shard.go"]; !near(got, 2.06) {
		t.Errorf("shard.go flat = %v, want 2.06 (two rows summed)", got)
	}
	if got := byFile["/root/repo/internal/live/wheel.go"]; !near(got, 1.42) {
		t.Errorf("wheel.go flat = %v, want 1.42 (the inline row folded in)", got)
	}
	if got := byFile["/usr/local/go/src/net/fd_posix.go"]; !near(got, 0.04) {
		t.Errorf("ms row = %v s, want 0.04", got)
	}
	shares := layerShares(byFile)
	if len(shares) != len(cpuLayers) {
		t.Fatalf("%d layers, want %d", len(shares), len(cpuLayers))
	}
	want := map[string]float64{
		"live.shard": 0.230, "live.wheel": 0.142, "live.wire": 0.040, "live.stream": 0.050, "live.chan": 0.019,
		"live.faults": 0.010, "live.member": 0.006, "live.other": 0.015,
		"core": 0.017, "sim": 0.012, "graph": 0.118, "cut": 0.010, "rng": 0.019,
		"runtime.gc": 0.011, "runtime.sched": 0.221, "runtime.mem": 0.033, "syscall": 0.034,
		"harness": 0.008, "other": 0.005,
	}
	total := 0.0
	for layer, w := range want {
		if got := shares[layer]; math.Abs(got-w) > 1e-6 {
			t.Errorf("cpu_share.%s = %.4f, want %.4f", layer, got, w)
		}
		total += shares[layer]
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	if _, err := parsePprofTop("no table here"); err == nil {
		t.Error("a report without a header parsed")
	}
}

func TestParseFleetOnCapturedOutput(t *testing.T) {
	raw, err := os.ReadFile("testdata/gossipctl_v.txt")
	if err != nil {
		t.Fatal(err)
	}
	var lines []stampedLine
	for i, text := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		lines = append(lines, stampedLine{at: float64(i) / 10, text: text})
	}
	daemons := parseFleet(lines)
	if len(daemons) != 2 {
		t.Fatalf("daemons=%d", len(daemons))
	}
	d0, d1 := daemons["d0"], daemons["d1"]
	if d0.bannerAt != 0.1 || d1.bannerAt != 0.2 || d1.completedAt != 0.3 || d0.completedAt != 0.8 {
		t.Errorf("line times: d0 banner %v completed %v, d1 banner %v completed %v", d0.bannerAt, d0.completedAt, d1.bannerAt, d1.completedAt)
	}
	if d0.informed != 100000 || d0.hosted != 100000 || d0.messages != 1126244 || d0.dropped != 78062 {
		t.Errorf("d0 completed line: %+v", d0)
	}
	if !near(d0.wallS, 1.071) || !near(d1.wallS, 0.971) {
		t.Errorf("wall: d0 %v, d1 %v", d0.wallS, d1.wallS)
	}
	if d0.retransmits != 101810 || d1.retransmits != 10868 || d0.shedQueue != 78345 {
		t.Errorf("faults/overload: d0 %+v d1 %+v", d0, d1)
	}
	if !near(d0.drainWallS, 0.001) || d1.drainWallS != 0 || !d0.drainClean || !d1.drainClean {
		t.Errorf("drain wall: d0 %v d1 %v", d0.drainWallS, d1.drainWallS)
	}
	if d1.frames != 405 || d1.wireBytes != 4616955 || d1.localFrames != 405 {
		t.Errorf("d1 wire line: %+v", d1)
	}
	if g := parseFleet([]stampedLine{{0, "gossipctl: completed=false drains-clean=false messages=0"}, {0, "noise: x=1"}}); len(g) != 0 {
		t.Errorf("a fleet without daemon lines parsed as %+v", g)
	}
}

// fakeTransport is the inner transport of the decorator tests. Its Recv
// fails the test: the decorator must never forward it.
type fakeTransport struct {
	t      *testing.T
	sent   []live.Message
	sink   live.DeliverySink
	hosted map[gossip.NodeID]bool
}

func (f *fakeTransport) Send(msg live.Message, _ time.Duration) error {
	f.sent = append(f.sent, msg)
	return nil
}
func (f *fakeTransport) Recv(gossip.NodeID) <-chan live.Message {
	f.t.Error("decorator forwarded Recv to the inner transport")
	return make(chan live.Message)
}
func (f *fakeTransport) Close() error                                 { return nil }
func (f *fakeTransport) Hosts(u gossip.NodeID) bool                   { return f.hosted[u] }
func (f *fakeTransport) SetSink(s live.DeliverySink) bool             { f.sink = s; return true }
func (f *fakeTransport) deliver(m live.Message, d time.Duration) bool { return f.sink(m, d) }

func TestDecoratorSamplingIsDeterministicAndNearOneIn64(t *testing.T) {
	hits := 0
	const n = 1 << 18
	for i := 0; i < n; i++ {
		k := msgKey{gossip.NodeID(i % 4096), gossip.NodeID((i * 7) % 4096), live.MsgKind(1 + i%2), i / 4096}
		if sampled(k) != sampled(k) {
			t.Fatal("sampling is not a function of the key")
		}
		if sampled(k) {
			hits++
		}
	}
	if share := float64(hits) / n; share < 1.0/80 || share > 1.0/50 {
		t.Errorf("sampled share = 1/%.1f, want about 1/64", 1/share)
	}
}

func TestDecoratorForwardsAndMeasuresTransit(t *testing.T) {
	table := newTransitTable()
	innerA := &fakeTransport{t: t, hosted: map[gossip.NodeID]bool{0: true, 1: true}}
	innerB := &fakeTransport{t: t, hosted: map[gossip.NodeID]bool{2: true}}
	a, b := newDecorator(innerA, 0, table), newDecorator(innerB, 1, table)

	var tr live.Transport = a
	if ch := tr.Recv(0); ch != nil {
		t.Error("Recv returned a channel")
	}
	if !a.Hosts(1) || a.Hosts(2) || !b.Hosts(2) {
		t.Error("Hosts is not forwarded")
	}
	var gotA, gotB []live.Message
	if !a.SetSink(func(m live.Message, _ time.Duration) bool { gotA = append(gotA, m); return true }) ||
		!b.SetSink(func(m live.Message, _ time.Duration) bool { gotB = append(gotB, m); return true }) {
		t.Fatal("SetSink not honoured")
	}

	// Find one sampled cross-daemon message (0 → 2) and one local (0 → 1).
	pick := func(to gossip.NodeID) live.Message {
		for tick := 0; ; tick++ {
			m := live.Message{Kind: live.MsgRequest, From: 0, To: to, SentTick: tick}
			if sampled(msgKey{m.From, m.To, m.Kind, m.SentTick}) {
				return m
			}
		}
	}
	cross, local := pick(2), pick(1)
	unsampled := live.Message{Kind: live.MsgRequest, From: 0, To: 2, SentTick: -1}
	for sampled(msgKey{0, 2, live.MsgRequest, unsampled.SentTick}) {
		unsampled.SentTick--
	}
	for _, m := range []live.Message{cross, local, unsampled} {
		if err := a.Send(m, 3*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if len(innerA.sent) != 3 {
		t.Fatalf("inner saw %d sends, want 3", len(innerA.sent))
	}
	if len(table.sendNs) != 2 {
		t.Errorf("timed %d sends, want the 2 sampled ones", len(table.sendNs))
	}
	// The cross-daemon message arrives with its delay spent; the local one
	// still carries it; the cross one then arrives again (a retransmission).
	innerB.deliver(cross, 0)
	innerB.deliver(unsampled, 0)
	innerA.deliver(local, 3*time.Millisecond)
	innerB.deliver(cross, 0)
	if len(gotB) != 3 || len(gotA) != 1 {
		t.Errorf("sinks got %d and %d messages, want 3 and 1", len(gotB), len(gotA))
	}
	if len(table.crossUs) != 1 || len(table.localUs) != 1 {
		t.Fatalf("transit samples: %d cross, %d local, want 1 and 1", len(table.crossUs), len(table.localUs))
	}
	if table.crossUs[0] > -1000 || table.localUs[0] < 0 {
		// Delivered at once, so less the 3 ms delay the cross transit is
		// negative here, and the local one — delay still to serve — is not.
		t.Errorf("transit: cross %v us, local %v us", table.crossUs[0], table.localUs[0])
	}
	if table.firstCross.IsZero() {
		t.Error("first cross-daemon delivery not seen")
	}
	if len(table.sent) != 0 {
		t.Errorf("%d sends left unmatched", len(table.sent))
	}
}

// partialTransport exports only some of the optional counters.
type partialTransport struct{ bytes, msgs int64 }

func (p partialTransport) WireBytesOut() int64 { return p.bytes }
func (p partialTransport) WireMsgsOut() int64  { return p.msgs }

type bytesOnlyTransport struct{ bytes int64 }

func (b bytesOnlyTransport) WireBytesOut() int64 { return b.bytes }

func TestRemovedAccessorReadsAsMissing(t *testing.T) {
	sum := sumCounters([]map[string]int64{readCounters(partialTransport{100, 7}), readCounters(bytesOnlyTransport{50})})
	if v, ok := sum["WireBytesOut"]; !ok || v != 150 {
		t.Errorf("WireBytesOut = %v, %v; want 150 from both daemons", v, ok)
	}
	for _, name := range []string{"WireMsgsOut", "WireFramesOut", "Overload"} {
		if _, ok := sum[name]; ok {
			t.Errorf("%s is reported though a daemon does not export it", name)
		}
	}
}

func TestSpecAgreesWithHarness(t *testing.T) {
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in %s, %d in the harness", len(spec.Workloads), specFile, len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in %s, %q in the harness", i, w.Name, specFile, workloads[i].name)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s among the end-to-end metrics")
	}
	for _, l := range cpuLayers {
		if spec.unit("cpu_share."+l) == "" {
			t.Errorf("cpu_share.%s is not a per-layer metric of %s", l, specFile)
		}
	}
	for _, name := range exactMetrics {
		if spec.unit(name) == "" {
			t.Errorf("exact metric %s is not in %s", name, specFile)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "inform_wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "msgs_per_s", Better: "higher", Bound: 0.10}
	tight := func(v float64) side { return side{q1: v * 0.99, med: v, q3: v * 1.01, n: 10} }
	wide := func(v float64) side { return side{q1: v * 0.9, med: v, q3: v * 1.1, n: 10} }
	cases := []struct {
		m    metricSpec
		a, b side
		want string
	}{
		{lower, tight(1), tight(1.05), "within bound"},
		{lower, tight(1), tight(1.2), "REGRESSED"},
		{lower, tight(1), tight(0.8), "improved"},
		{lower, wide(1), tight(1.05), "unresolved"},
		{lower, tight(1), wide(1.05), "unresolved"},
		{higher, tight(100), tight(80), "REGRESSED"},
		{higher, tight(100), tight(120), "improved"},
		{higher, tight(100), tight(95), "within bound"},
	}
	for _, c := range cases {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.m.Name, c.a.med, c.b.med, got, c.want)
		}
	}
}
