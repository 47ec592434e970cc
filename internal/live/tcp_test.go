package live

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gossip/internal/graph"
)

// TestTCPClusterPushPull splits a 64-node ring of cliques across four
// runtimes, each behind its own TCP transport on loopback, and checks the
// cluster jointly completes push-pull: every runtime ends with all of its
// hosted nodes informed.
func TestTCPClusterPushPull(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-runtime TCP cluster is not -short friendly")
	}
	g := graph.RingOfCliques(8, 8, 4) // 64 nodes
	const parts = 4
	per := g.N() / parts

	// Phase 1: listen (port 0), so every transport learns its address.
	transports := make([]*TCPTransport, parts)
	hosted := make([][]graph.NodeID, parts)
	addrOf := make(map[graph.NodeID]string, g.N())
	for i := 0; i < parts; i++ {
		for u := i * per; u < (i+1)*per; u++ {
			hosted[i] = append(hosted[i], graph.NodeID(u))
		}
		tr, err := NewTCPTransport("127.0.0.1:0", hosted[i], 4096)
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		defer tr.Close()
		transports[i] = tr
		for _, u := range hosted[i] {
			addrOf[u] = tr.Addr().String()
		}
	}
	// Phase 2: exchange the address book.
	for _, tr := range transports {
		tr.SetPeers(addrOf)
	}

	// Phase 3: run the four runtimes concurrently. Linger keeps each
	// completed runtime answering pulls so slower partitions can finish.
	var wg sync.WaitGroup
	results := make([]Result, parts)
	errs := make([]error, parts)
	for i := 0; i < parts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(g, ppProto{source: 0}, transports[i], Options{
				Seed:   11,
				Tick:   time.Millisecond,
				Nodes:  hosted[i],
				Linger: 2 * time.Second,
			})
		}(i)
	}
	wg.Wait()

	informed := 0
	for i := 0; i < parts; i++ {
		if errs[i] != nil {
			t.Fatalf("runtime %d: %v", i, errs[i])
		}
		if !results[i].Completed {
			t.Errorf("runtime %d did not complete", i)
		}
		for _, u := range hosted[i] {
			if results[i].Done[u] {
				informed++
			}
		}
	}
	if informed != g.N() {
		t.Errorf("informed %d/%d nodes across the cluster", informed, g.N())
	}
}

// TestTCPWireRoundTrip sends one request through a real socket pair and
// checks the decoded message matches, payload included.
func TestTCPWireRoundTrip(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeers(map[graph.NodeID]string{1: b.Addr().String()})

	want := Message{
		Kind: MsgRequest, From: 0, To: 1, EdgeID: 5, Latency: 3, SentTick: 9,
		Payload: bitp{informed: true},
	}
	if err := a.Send(want, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case got := <-b.Recv(1):
		if got.Kind != want.Kind || got.From != want.From || got.To != want.To ||
			got.EdgeID != want.EdgeID || got.Latency != want.Latency || got.SentTick != want.SentTick {
			t.Errorf("header mismatch: got %+v want %+v", got, want)
		}
		if p, ok := got.Payload.(bitp); !ok || !p.informed {
			t.Errorf("payload mismatch: %#v", got.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived")
	}
	if n := a.Dropped() + b.Dropped(); n != 0 {
		t.Errorf("%d messages dropped", n)
	}
}

// TestTCPSendUnknownPeer checks the error paths: unmapped destination and
// unregistered payload type.
func TestTCPSendUnknownPeer(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(Message{To: 9, Payload: bitp{}}, 0); err == nil {
		t.Error("want error for unmapped peer")
	}
	a.SetPeers(map[graph.NodeID]string{9: "127.0.0.1:1"})
	if err := a.Send(Message{To: 9, Payload: struct{ z int }{}}, 0); err == nil {
		t.Error("want error for unregistered payload")
	}
}

// TestTCPDialRetry checks a cluster can start in any order: the sender's
// first write happens before the receiver exists.
func TestTCPDialRetry(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Reserve an address, then release it so the peer can claim it later.
	probe, err := NewTCPTransport("127.0.0.1:0", nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	a.SetPeers(map[graph.NodeID]string{1: addr})
	if err := a.Send(Message{Kind: MsgRequest, From: 0, To: 1, Payload: bitp{}}, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // sender is already retrying the dial
	b, err := NewTCPTransport(addr, []graph.NodeID{1}, 8)
	if err != nil {
		t.Fatalf("late receiver on %s: %v", addr, err)
	}
	defer b.Close()
	select {
	case got := <-b.Recv(1):
		if got.From != 0 {
			t.Errorf("unexpected sender %d", got.From)
		}
	case <-time.After(10 * time.Second):
		t.Fatal(fmt.Sprintf("message never arrived after retry (dropped=%d)", a.Dropped()))
	}
}
