package member

import (
	"reflect"
	"testing"

	"gossip/internal/rng"
)

// testConfig is a small, fast config with recording on.
func testConfig(n int) Config {
	return Config{Seed: 42, N: n, Record: true}.Defaulted()
}

func TestMemberConfigDefaults(t *testing.T) {
	c := Config{N: 16}.Defaulted()
	if c.ProbeInterval != DefaultProbeInterval {
		t.Fatalf("ProbeInterval = %d, want %d", c.ProbeInterval, DefaultProbeInterval)
	}
	if c.ProbeTimeout != DefaultProbeInterval/2 {
		t.Fatalf("ProbeTimeout = %d, want %d", c.ProbeTimeout, DefaultProbeInterval/2)
	}
	if c.SuspicionMult != DefaultSuspicionMult || c.IndirectK != DefaultIndirectK ||
		c.MaxPiggyback != DefaultMaxPiggyback || c.RetransmitMult != DefaultRetransmitMult {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.SyncInterval != 8*c.ProbeInterval {
		t.Fatalf("SyncInterval = %d, want %d", c.SyncInterval, 8*c.ProbeInterval)
	}
	// ⌈log₂ 16⌉ = 4.
	if got, want := c.SuspicionTicks(), c.SuspicionMult*c.ProbeInterval*4; got != want {
		t.Fatalf("SuspicionTicks = %d, want %d", got, want)
	}
	if b := c.DetectionBound(16); b <= c.SuspicionTicks() {
		t.Fatalf("DetectionBound(16) = %d, want > SuspicionTicks %d", b, c.SuspicionTicks())
	}
	// Negative SyncInterval survives Defaulted (it means "disabled").
	if c2 := (Config{N: 4, SyncInterval: -1}).Defaulted(); c2.SyncInterval != -1 {
		t.Fatalf("SyncInterval = %d, want -1 preserved", c2.SyncInterval)
	}
}

// TestMemberMergeRules exercises the SWIM precedence table directly.
func TestMemberMergeRules(t *testing.T) {
	cases := []struct {
		name    string
		have    Update // pre-existing view of node 1 (applied first)
		up      Update // incoming delta
		applies bool
	}{
		{"alive-needs-higher-inc", Update{1, Alive, 2}, Update{1, Alive, 2}, false},
		{"alive-overrides-older-alive", Update{1, Alive, 1}, Update{1, Alive, 2}, true},
		{"alive-overrides-suspect", Update{1, Suspect, 1}, Update{1, Alive, 2}, true},
		{"alive-not-same-inc-suspect", Update{1, Suspect, 2}, Update{1, Alive, 2}, false},
		{"alive-overrides-dead", Update{1, Dead, 1}, Update{1, Alive, 2}, true},
		{"alive-not-dead-same-inc", Update{1, Dead, 2}, Update{1, Alive, 2}, false},
		{"suspect-beats-alive-same-inc", Update{1, Alive, 2}, Update{1, Suspect, 2}, true},
		{"suspect-not-older-alive", Update{1, Alive, 2}, Update{1, Suspect, 1}, false},
		{"suspect-needs-higher-than-suspect", Update{1, Suspect, 2}, Update{1, Suspect, 2}, false},
		{"suspect-beats-older-suspect", Update{1, Suspect, 1}, Update{1, Suspect, 2}, true},
		{"suspect-never-beats-dead", Update{1, Dead, 0}, Update{1, Suspect, 9}, false},
		{"dead-beats-alive-same-inc", Update{1, Alive, 2}, Update{1, Dead, 2}, true},
		{"dead-beats-suspect-same-inc", Update{1, Suspect, 2}, Update{1, Dead, 2}, true},
		{"dead-not-older-inc", Update{1, Alive, 2}, Update{1, Dead, 1}, false},
		{"dead-idempotent", Update{1, Dead, 2}, Update{1, Dead, 5}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nd := New(0, nil, testConfig(4))
			nd.applyLocked(tc.have)
			if got := nd.applyLocked(tc.up); got != tc.applies {
				t.Fatalf("apply(%v) after %v = %v, want %v", tc.up, tc.have, got, tc.applies)
			}
			st, inc, known := nd.StateOf(1)
			want := tc.have
			if tc.applies {
				want = tc.up
			}
			if !known || st != want.St || inc != want.Inc {
				t.Fatalf("view of 1 = (%v, %d, %v), want (%v, %d, true)",
					st, inc, known, want.St, want.Inc)
			}
		})
	}
}

func TestMemberUnknownNodeAnyStateApplies(t *testing.T) {
	for _, st := range []State{Alive, Suspect, Dead} {
		nd := New(0, nil, testConfig(4))
		if !nd.applyLocked(Update{Node: 2, St: st, Inc: 0}) {
			t.Fatalf("first record (%v) about unknown node should apply", st)
		}
	}
	// Out-of-range IDs are ignored, not a panic.
	nd := New(0, nil, testConfig(4))
	if nd.applyLocked(Update{Node: 99, St: Alive, Inc: 0}) || nd.applyLocked(Update{Node: -1}) {
		t.Fatal("out-of-range node IDs must not apply")
	}
}

// TestMemberRefutation checks the incarnation-bump self-defense: hearing
// yourself suspected (or declared dead) at your current incarnation yields a
// fresher alive record, never an accepted suspicion.
func TestMemberRefutation(t *testing.T) {
	nd := New(3, nil, testConfig(8))
	if nd.Incarnation() != 0 {
		t.Fatalf("fresh node incarnation = %d, want 0", nd.Incarnation())
	}
	nd.Receive(Packet{Kind: PktSyncAck, From: 1, Updates: []Update{{Node: 3, St: Suspect, Inc: 0}}}, 5)
	if inc := nd.Incarnation(); inc != 1 {
		t.Fatalf("after suspect{inc 0}: incarnation = %d, want 1", inc)
	}
	st, inc, _ := nd.StateOf(3)
	if st != Alive || inc != 1 {
		t.Fatalf("self view = (%v, %d), want (alive, 1)", st, inc)
	}
	// A stale suspicion (lower incarnation) is ignored outright.
	nd.Receive(Packet{Kind: PktSyncAck, From: 1, Updates: []Update{{Node: 3, St: Suspect, Inc: 0}}}, 6)
	if inc := nd.Incarnation(); inc != 1 {
		t.Fatalf("stale suspicion bumped incarnation to %d", inc)
	}
	// A dead record at (or above) the current incarnation jumps past it.
	nd.Receive(Packet{Kind: PktSyncAck, From: 1, Updates: []Update{{Node: 3, St: Dead, Inc: 7}}}, 7)
	if inc := nd.Incarnation(); inc != 8 {
		t.Fatalf("after dead{inc 7}: incarnation = %d, want 8", inc)
	}
	// The refutation must be queued for dissemination.
	found := false
	for _, up := range nd.piggybackLocked() {
		if up.Node == 3 && up.St == Alive && up.Inc == 8 {
			found = true
		}
	}
	if !found {
		t.Fatal("refutation alive{3, inc 8} not queued for piggyback")
	}
}

func TestMemberLearnsSenderAndAcks(t *testing.T) {
	nd := New(0, nil, testConfig(8))
	if _, _, known := nd.StateOf(5); known {
		t.Fatal("node 5 known before any contact")
	}
	out := nd.Receive(Packet{Kind: PktPing, From: 5, Origin: 5, Subject: 0, Seq: 9}, 3)
	if st, _, known := nd.StateOf(5); !known || st != Alive {
		t.Fatalf("sender not learned alive: (%v, known=%v)", st, known)
	}
	if len(out) != 1 || out[0].To != 5 || out[0].Pkt.Kind != PktAck ||
		out[0].Pkt.Seq != 9 || out[0].Pkt.Subject != 0 {
		t.Fatalf("ping answer = %+v, want ack to 5 seq 9", out)
	}
}

func TestMemberPingReqRelay(t *testing.T) {
	nd := New(2, []int{0, 1}, testConfig(8))
	out := nd.Receive(Packet{Kind: PktPingReq, From: 0, Origin: 0, Subject: 7, Seq: 4}, 3)
	if len(out) != 1 || out[0].To != 7 {
		t.Fatalf("relay output = %+v, want one ping to 7", out)
	}
	p := out[0].Pkt
	if p.Kind != PktPing || p.From != 2 || p.Origin != 0 || p.Subject != 7 || p.Seq != 4 {
		t.Fatalf("relayed ping = %+v, want kind=ping from=2 origin=0 subject=7 seq=4", p)
	}
	// The subject's eventual ack must satisfy the origin's outstanding probe:
	// simulate it end to end.
	target := New(7, nil, testConfig(8))
	acks := target.Receive(p, 4)
	if len(acks) != 1 || acks[0].To != 0 {
		t.Fatalf("relayed ping's ack = %+v, want ack to origin 0", acks)
	}
	origin := New(0, []int{7}, testConfig(8))
	origin.mu.Lock()
	origin.target, origin.targetSeq = 7, 4
	origin.mu.Unlock()
	origin.Receive(acks[0].Pkt, 5)
	origin.mu.Lock()
	acked := origin.acked
	origin.mu.Unlock()
	if !acked {
		t.Fatal("origin did not accept the relayed ack")
	}
}

func TestMemberProbeSuspectsUnresponsive(t *testing.T) {
	cfg := testConfig(4)
	nd := New(0, []int{1}, cfg)
	var pinged, pingReqed bool
	for now := 1; now <= 2*cfg.ProbeInterval; now++ {
		for _, env := range nd.Tick(now) {
			switch env.Pkt.Kind {
			case PktPing:
				pinged = true
			case PktPingReq:
				pingReqed = true
			}
		}
	}
	if !pinged {
		t.Fatal("node never pinged its only peer")
	}
	// With no other members there are no relays, so no ping-req can fire.
	if pingReqed {
		t.Fatal("ping-req fired with no relay candidates")
	}
	st, _, _ := nd.StateOf(1)
	if st != Suspect {
		t.Fatalf("unresponsive peer = %v, want suspect", st)
	}
	// Let the suspicion clock expire: the peer is declared dead.
	deadline := 2*cfg.ProbeInterval + cfg.SuspicionTicks() + cfg.ProbeInterval
	for now := 2*cfg.ProbeInterval + 1; now <= deadline; now++ {
		nd.Tick(now)
	}
	if st, _, _ := nd.StateOf(1); st != Dead {
		t.Fatalf("suspect after timeout = %v, want dead", st)
	}
}

func TestMemberPiggybackBudget(t *testing.T) {
	cfg := testConfig(4)
	cfg.MaxPiggyback = 2
	nd := New(0, nil, cfg)
	nd.mu.Lock()
	nd.queue = nil // drop the join announcement; isolate the budget math
	for v := 1; v < 4; v++ {
		nd.enqueueLocked(Update{Node: v, St: Alive, Inc: 1})
	}
	nd.mu.Unlock()

	counts := make(map[int]int)
	for i := 0; i < 100; i++ {
		nd.mu.Lock()
		ups := nd.piggybackLocked()
		nd.mu.Unlock()
		if len(ups) > cfg.MaxPiggyback {
			t.Fatalf("piggyback batch of %d exceeds MaxPiggyback %d", len(ups), cfg.MaxPiggyback)
		}
		if len(ups) == 0 {
			break
		}
		for _, up := range ups {
			counts[up.Node]++
		}
	}
	// memberCount is 2 (floor), so each delta gets RetransmitMult·⌈log₂2⌉
	// rebroadcasts.
	want := cfg.RetransmitMult * 1
	for v := 1; v < 4; v++ {
		if counts[v] != want {
			t.Fatalf("node %d delta piggybacked %d times, want %d", v, counts[v], want)
		}
	}
}

func TestMemberEventLogRecordsTransitions(t *testing.T) {
	nd := New(0, nil, testConfig(4))
	nd.Receive(Packet{Kind: PktSyncAck, From: 1, Updates: []Update{
		{Node: 2, St: Alive, Inc: 0},
		{Node: 2, St: Suspect, Inc: 0},
	}}, 7)
	events := nd.Events()
	// learnSender(1), alive(2), suspect(2).
	want := []Event{
		{Tick: 7, Node: 1, St: Alive, Inc: 0},
		{Tick: 7, Node: 2, St: Alive, Inc: 0},
		{Tick: 7, Node: 2, St: Suspect, Inc: 0},
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	log := nd.EventLog()
	wantLog := "t=7 node=1 alive inc=0\nt=7 node=2 alive inc=0\nt=7 node=2 suspect inc=0\n"
	if log != wantLog {
		t.Fatalf("event log = %q, want %q", log, wantLog)
	}
}

func TestMemberPacketRoundTrip(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 200; i++ {
		p := Packet{
			Kind:    PacketKind(1 + r.Intn(5)),
			From:    r.Intn(1 << 20),
			Origin:  r.Intn(1 << 20),
			Subject: r.Intn(1 << 20),
			Seq:     uint32(r.Uint64()),
		}
		for j := r.Intn(8); j > 0; j-- {
			p.Updates = append(p.Updates, Update{
				Node: r.Intn(1 << 20),
				St:   State(r.Intn(3)),
				Inc:  uint32(r.Uint64()),
			})
		}
		enc := p.AppendWire(nil)
		if p.SizeBytes() != len(enc) {
			t.Fatalf("SizeBytes = %d, encoded length = %d", p.SizeBytes(), len(enc))
		}
		got, err := DecodePacket(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip: got %+v, want %+v", got, p)
		}
	}
}

func TestMemberPacketMalformed(t *testing.T) {
	valid := Packet{Kind: PktPing, From: 1, Origin: 1, Subject: 2, Seq: 3,
		Updates: []Update{{Node: 2, St: Suspect, Inc: 4}}}.AppendWire(nil)
	if _, err := DecodePacket(valid); err != nil {
		t.Fatalf("control: valid packet rejected: %v", err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"zero-kind", []byte{0}},
		{"bad-kind", []byte{99}},
		{"truncated-header", valid[:2]},
		{"truncated-delta", valid[:len(valid)-1]},
		{"trailing-bytes", append(append([]byte(nil), valid...), 0)},
		{"bad-state", func() []byte {
			p := Packet{Kind: PktAck, Updates: []Update{{Node: 1, St: 9, Inc: 0}}}
			return p.AppendWire(nil)
		}()},
		{"huge-count", func() []byte {
			// Header then a delta count far past maxPacketUpdates.
			b := Packet{Kind: PktAck}.AppendWire(nil)
			b = b[:len(b)-1] // drop the zero count
			return append(b, 0xff, 0xff, 0xff, 0xff, 0x7f)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodePacket(tc.data); err == nil {
				t.Fatalf("decode(%x) succeeded, want error", tc.data)
			}
		})
	}
}

func TestMemberStateStrings(t *testing.T) {
	if Alive.String() != "alive" || Suspect.String() != "suspect" || Dead.String() != "dead" {
		t.Fatal("state strings changed; event logs are a compatibility surface")
	}
	for k := PktPing; k <= PktSyncAck; k++ {
		if s := k.String(); s == "" || s[0] == 'P' {
			t.Fatalf("kind %d has no lowercase name: %q", k, s)
		}
	}
}
