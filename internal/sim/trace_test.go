package sim

import (
	"strings"
	"testing"

	"gossip/internal/graph"
)

func TestRecorderCapturesLifecycle(t *testing.T) {
	gb := graph.New(2)
	gb.MustAddEdge(0, 1, 4)
	g := gb.Build()
	var rec Recorder
	nw := NewNetwork(g, Config{Seed: 1, MaxRounds: 50, Trace: rec.Tracer()})
	a := &echoHandler{initiateAt: 1, edgeIdx: 0, payload: "x"}
	nw.SetHandler(0, a)
	nw.SetHandler(1, &echoHandler{})
	if _, err := nw.Run(func(nw *Network) bool { return len(a.gotResponses) > 0 }); err != nil {
		t.Fatal(err)
	}
	if got := rec.Count(TraceInitiate); got != 1 {
		t.Errorf("initiations traced = %d, want 1", got)
	}
	if got := rec.Count(TraceRequest); got != 1 {
		t.Errorf("requests traced = %d, want 1", got)
	}
	if got := rec.Count(TraceResponse); got != 1 {
		t.Errorf("responses traced = %d, want 1", got)
	}
	// Order: initiate (r1) then request (r3) then response (r5).
	if len(rec.Events) != 3 {
		t.Fatalf("events = %v", rec.Events)
	}
	if rec.Events[0].Kind != TraceInitiate || rec.Events[0].Round != 1 {
		t.Errorf("first event = %v", rec.Events[0])
	}
	if rec.Events[1].Kind != TraceRequest || rec.Events[1].Round != 3 {
		t.Errorf("second event = %v", rec.Events[1])
	}
	if rec.Events[2].Kind != TraceResponse || rec.Events[2].Round != 5 {
		t.Errorf("third event = %v", rec.Events[2])
	}
}

func TestTraceCrashEvent(t *testing.T) {
	g := graph.Path(2, 1)
	var rec Recorder
	nw := NewNetwork(g, Config{
		Seed: 1, MaxRounds: 10,
		Crashes: map[graph.NodeID]int{1: 2},
		Trace:   rec.Tracer(),
	})
	nw.SetHandler(0, &funcHandler{})
	nw.SetHandler(1, &funcHandler{})
	_, _ = nw.Run(func(nw *Network) bool { return nw.Round() >= 3 })
	if rec.Count(TraceCrash) != 1 {
		t.Errorf("crash events = %d, want 1", rec.Count(TraceCrash))
	}
}

func TestWriteTracer(t *testing.T) {
	var sb strings.Builder
	tr := WriteTracer(&sb)
	tr(TraceEvent{Kind: TraceInitiate, Round: 3, From: 1, To: 2, EdgeID: 7, Latency: 9})
	tr(TraceEvent{Kind: TraceCrash, Round: 4, From: 5, To: -1})
	out := sb.String()
	for _, want := range []string{"r3 initiate 1->2", "ℓ=9", "r4 crash node=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceKindString(t *testing.T) {
	tests := []struct {
		kind TraceKind
		want string
	}{
		{kind: TraceInitiate, want: "initiate"},
		{kind: TraceRequest, want: "request"},
		{kind: TraceResponse, want: "response"},
		{kind: TraceCrash, want: "crash"},
		{kind: TraceKind(99), want: "TraceKind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.kind, got, tt.want)
		}
	}
}
