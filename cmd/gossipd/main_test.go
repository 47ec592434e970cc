package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	"gossip"
	"gossip/internal/graphio"
)

// TestSingleDaemonHostsAll is the smoke test: one daemon hosting every node
// needs no -peers and completes in-process.
func TestSingleDaemonHostsAll(t *testing.T) {
	var sb strings.Builder
	args := []string{
		"-graph", "clique", "-n", "8",
		"-listen", "127.0.0.1:0",
		"-tick", "500us", "-linger", "0s", "-seed", "3",
	}
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, sb.String())
	}
	out := sb.String()
	for _, w := range []string{"gossipd: graph=clique nodes=8 hosting=8", "completed=true", "informed=8/8"} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
}

// TestGraphFamilies floods every registered family, and a -load file, on
// one daemon hosting every node.
func TestGraphFamilies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("4 3\n0 1 2\n1 2 1\n2 3 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	names := append([]string{path}, graphio.Families()...)
	for _, name := range names {
		graph := []string{"-graph", name}
		if name == path {
			graph = []string{"-load", path}
		}
		t.Run(filepath.Base(name), func(t *testing.T) {
			args := append([]string{"-n", "24", "-k", "3", "-s", "4", "-latency", "2", "-latmax", "4",
				"-p", "0.2", "-phi", "0.2", "-avgdeg", "6", "-delta", "8",
				"-proto", "flood", "-listen", "127.0.0.1:0", "-tick", "200us", "-linger", "0s"}, graph...)
			var sb strings.Builder
			if err := run(args, &sb); err != nil {
				t.Fatalf("run(%v): %v\n%s", args, err, sb.String())
			}
			for _, w := range []string{"gossipd: graph=" + name + " nodes=", "completed=true"} {
				if !strings.Contains(sb.String(), w) {
					t.Errorf("output missing %q:\n%s", w, sb.String())
				}
			}
		})
	}
}

// TestTwoDaemonCluster runs a real two-daemon push-pull cluster over TCP
// loopback, with and without a -flushwindow widening the write batches. Each
// daemon hosts one side of a dumbbell.
func TestTwoDaemonCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster run is not -short friendly")
	}
	cases := []struct {
		name   string
		extra0 []string // daemon 0's extra flags
		extra1 []string // daemon 1's
	}{
		{name: "binary"},
		{name: "flushwindow",
			extra0: []string{"-flushwindow", "200us"},
			extra1: []string{"-flushwindow", "200us"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addrs := reservePorts(t, 2)
			peers := fmt.Sprintf("0-3=%s,4-7=%s", addrs[0], addrs[1])
			common := []string{
				"-graph", "dumbbell", "-s", "4", "-latency", "2",
				"-proto", "pushpull", "-seed", "7",
				"-tick", "1ms", "-linger", "2s",
				"-peers", peers,
			}
			var wg sync.WaitGroup
			outs := make([]strings.Builder, 2)
			errs := make([]error, 2)
			for i, spec := range []struct {
				listen, nodes string
				extra         []string
			}{
				{addrs[0], "0-3", tc.extra0},
				{addrs[1], "4-7", tc.extra1},
			} {
				wg.Add(1)
				go func(i int, listen, nodes string, extra []string) {
					defer wg.Done()
					args := append([]string{"-listen", listen, "-nodes", nodes}, common...)
					errs[i] = run(append(args, extra...), &outs[i])
				}(i, spec.listen, spec.nodes, spec.extra)
			}
			wg.Wait()
			for i := range outs {
				if errs[i] != nil {
					t.Fatalf("daemon %d: %v\n%s", i, errs[i], outs[i].String())
				}
				out := outs[i].String()
				for _, w := range []string{"completed=true", "informed=4/4"} {
					if !strings.Contains(out, w) {
						t.Errorf("daemon %d output missing %q:\n%s", i, w, out)
					}
				}
			}
		})
	}
}

// TestMemberSingleDaemon runs a daemon with SWIM membership enabled and the
// table dump on: the summary line and every hosted node's table must appear.
func TestMemberSingleDaemon(t *testing.T) {
	var sb strings.Builder
	args := []string{
		"-graph", "clique", "-n", "8",
		"-listen", "127.0.0.1:0",
		"-tick", "500us", "-linger", "0s", "-seed", "3",
		"-join", "0", "-probe-interval", "4", "-memberdump",
	}
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, sb.String())
	}
	out := sb.String()
	for _, w := range []string{"completed=true", "membership: packets=", "member table 0:", "member table 7:"} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "dead") && !strings.Contains(out, "dead=0") {
		t.Errorf("dead members declared with no crash injected:\n%s", out)
	}
}

// TestMemberTwoDaemonJoin is the README's two-daemon join example: two
// daemons, each hosting half a dumbbell, bootstrap membership from seed node
// 0 — which lives on daemon 0, so daemon 1's nodes join across the TCP
// transport (member packets as an interned binary payload type).
func TestMemberTwoDaemonJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster run is not -short friendly")
	}
	addrs := reservePorts(t, 2)
	peers := fmt.Sprintf("0-3=%s,4-7=%s", addrs[0], addrs[1])
	common := []string{
		"-graph", "dumbbell", "-s", "4", "-latency", "2",
		"-proto", "pushpull", "-seed", "7",
		"-tick", "1ms", "-linger", "2s",
		"-peers", peers,
		"-join", "0", "-probe-interval", "4", "-max-piggyback", "8",
	}
	var wg sync.WaitGroup
	outs := make([]strings.Builder, 2)
	errs := make([]error, 2)
	for i, spec := range []struct{ listen, nodes string }{
		{addrs[0], "0-3"},
		{addrs[1], "4-7"},
	} {
		wg.Add(1)
		go func(i int, listen, nodes string) {
			defer wg.Done()
			args := append([]string{"-listen", listen, "-nodes", nodes}, common...)
			errs[i] = run(args, &outs[i])
		}(i, spec.listen, spec.nodes)
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("daemon %d: %v\n%s", i, errs[i], outs[i].String())
		}
		out := outs[i].String()
		for _, w := range []string{"completed=true", "informed=4/4", "membership: packets="} {
			if !strings.Contains(out, w) {
				t.Errorf("daemon %d output missing %q:\n%s", i, w, out)
			}
		}
		if strings.Contains(out, "membership: packets=0 ") {
			t.Errorf("daemon %d sent no membership packets:\n%s", i, out)
		}
	}
}

// TestFlagErrors exercises the argument validation paths.
func TestFlagErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{
			name: "unknown-graph",
			args: []string{"-graph", "hypercube"},
			want: "unknown graph family",
		},
		{
			name: "unknown-proto",
			args: []string{"-graph", "clique", "-n", "4", "-proto", "quantum"},
			want: "unknown protocol",
		},
		{
			name: "bad-node-range",
			args: []string{"-graph", "clique", "-n", "4", "-nodes", "9-3"},
			want: "-nodes",
		},
		{
			name: "node-out-of-range",
			args: []string{"-graph", "clique", "-n", "4", "-nodes", "0-7"},
			want: "out of range",
		},
		{
			name: "duplicate-node",
			args: []string{"-graph", "clique", "-n", "4", "-nodes", "1,1"},
			want: "listed twice",
		},
		{
			name: "uncovered-peers",
			args: []string{"-graph", "clique", "-n", "4", "-nodes", "0-1"},
			want: "no peer address",
		},
		{
			name: "bad-peer-entry",
			args: []string{"-graph", "clique", "-n", "4", "-peers", "0-3"},
			want: "nodes=addr",
		},
		{
			name: "bad-crash-entry",
			args: []string{"-graph", "clique", "-n", "4", "-crash", "1=0"},
			want: "must be >= 1",
		},
		{
			name: "wire-flag-removed",
			args: []string{"-graph", "clique", "-n", "4", "-wire", "json"},
			want: "flag provided but not defined: -wire",
		},
		{
			name: "batch-flag-removed",
			args: []string{"-graph", "clique", "-n", "4", "-batch=false"},
			want: "flag provided but not defined: -batch",
		},
		{
			name: "rto-flag-removed",
			args: []string{"-graph", "clique", "-n", "4", "-rto", "2s"},
			want: "flag provided but not defined: -rto",
		},
		{
			name: "retrans-flag-removed",
			args: []string{"-graph", "clique", "-n", "4", "-retrans", "8"},
			want: "flag provided but not defined: -retrans",
		},
		{
			name: "max-pend-flag-removed",
			args: []string{"-graph", "clique", "-n", "4", "-max-pend", "100"},
			want: "flag provided but not defined: -max-pend",
		},
		{
			name: "peer-sockets-flag-removed",
			args: []string{"-graph", "clique", "-n", "4", "-peer-sockets", "127.0.0.1:7000=/tmp/d0.sock"},
			want: "flag provided but not defined: -peer-sockets",
		},
		{
			name: "queue-frames-flag-removed",
			args: []string{"-graph", "clique", "-n", "4", "-queue-frames", "-1"},
			want: "flag provided but not defined: -queue-frames",
		},
		{
			name: "mailbox-flag-removed",
			args: []string{"-graph", "clique", "-n", "4", "-mailbox", "-1"},
			want: "flag provided but not defined: -mailbox",
		},
		{
			name: "negative-flushwindow",
			args: []string{"-graph", "clique", "-n", "4", "-flushwindow", "-1ms"},
			want: "-flushwindow",
		},
		{
			name: "bad-join-node",
			args: []string{"-graph", "clique", "-n", "4", "-join", "9"},
			want: "-join",
		},
		{
			name: "memberdump-without-join",
			args: []string{"-graph", "clique", "-n", "4", "-memberdump"},
			want: "-memberdump requires membership",
		},
		{
			name: "negative-shards",
			args: []string{"-graph", "clique", "-n", "4", "-shards", "-2"},
			want: "-shards",
		},
		{
			name: "negative-nodes-per-shard",
			args: []string{"-graph", "clique", "-n", "4", "-nodes-per-shard", "-1"},
			want: "-nodes-per-shard",
		},
		{
			name: "shards-and-nodes-per-shard",
			args: []string{"-graph", "clique", "-n", "4", "-shards", "2", "-nodes-per-shard", "2"},
			want: "mutually exclusive",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var sb strings.Builder
			err := run(append(tt.args, "-listen", "127.0.0.1:0"), &sb)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("run(%v) error = %v, want substring %q", tt.args, err, tt.want)
			}
		})
	}
}

func TestResolveShards(t *testing.T) {
	tests := []struct {
		shards, nodesPer, hosted int
		want                     int
		wantErr                  bool
	}{
		{0, 0, 64, 0, false},   // both unset: defer to the runtime default
		{4, 0, 64, 4, false},   // explicit shard count passes through
		{0, 16, 64, 4, false},  // exact division
		{0, 10, 64, 7, false},  // ceil(64/10)
		{0, 100, 64, 1, false}, // more per shard than hosted: one shard
		{-1, 0, 64, 0, true},   // negative shards
		{0, -1, 64, 0, true},   // negative nodes-per-shard
		{2, 2, 64, 0, true},    // mutually exclusive
	}
	for _, tt := range tests {
		got, err := resolveShards(tt.shards, tt.nodesPer, tt.hosted)
		if (err != nil) != tt.wantErr || got != tt.want {
			t.Errorf("resolveShards(%d, %d, %d) = %d, %v; want %d, err=%v",
				tt.shards, tt.nodesPer, tt.hosted, got, err, tt.want, tt.wantErr)
		}
	}
}

// TestTenThousandNodeSingleDaemon is the scale smoke test: one daemon hosting
// 10k nodes on the sharded event loop completes a flood in-process. With four
// nodes-per-shard-derived workers this exercises the exact configuration the
// flag pair exists for.
func TestTenThousandNodeSingleDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node run is not -short friendly")
	}
	var sb strings.Builder
	args := []string{
		"-graph", "star", "-n", "10000",
		"-proto", "pushpull", "-source", "0",
		"-listen", "127.0.0.1:0",
		"-tick", "2ms", "-linger", "0s", "-seed", "11",
		"-nodes-per-shard", "2500",
	}
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, sb.String())
	}
	out := sb.String()
	for _, w := range []string{"hosting=10000", "completed=true", "informed=10000/10000"} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
}

func TestParseNodeSet(t *testing.T) {
	ids, err := parseNodeSet("4,0-2", 8)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[0 1 2 4]" {
		t.Errorf("parseNodeSet = %v", ids)
	}
	if all, err := parseNodeSet("", 3); err != nil || len(all) != 3 {
		t.Errorf("empty spec: %v %v", all, err)
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("0-1=a:1,3=b:2,2=unix:///tmp/d2.sock", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 4 || peers[0] != "a:1" || peers[1] != "a:1" || peers[3] != "b:2" ||
		peers[2] != "unix:///tmp/d2.sock" {
		t.Errorf("parsePeers = %v", peers)
	}
}

// TestParsePartitions: each -partition epoch becomes one fault phase that
// cuts the epoch's edge set for its whole window, and the faults: ledger
// line counts the configured phases.
func TestParsePartitions(t *testing.T) {
	g := gossip.Dumbbell(4, 1) // 0-3 | 4-7, one bridge
	phases, err := parsePartitions("5:40:0-3/4-7; 50:0:0-3/4-7", g)
	if err != nil {
		t.Fatal(err)
	}
	bridge := gossip.LiveCutBetween(g, []gossip.NodeID{0, 1, 2, 3}, []gossip.NodeID{4, 5, 6, 7})
	want := []gossip.LiveFaultPhase{{From: 5, Until: 40, Cut: bridge}, {From: 50, Until: 0, Cut: bridge}}
	if !reflect.DeepEqual(phases, want) {
		t.Errorf("parsePartitions = %+v, want %+v", phases, want)
	}
	for _, bad := range []string{"5:40", "x:40:0/4", "9:5:0/4", "5:40:0-3", "5:40:1/6"} {
		if _, err := parsePartitions(bad, g); err == nil {
			t.Errorf("parsePartitions(%q) accepted", bad)
		}
	}

	var sb strings.Builder
	args := []string{
		"-graph", "dumbbell", "-s", "4", "-listen", "127.0.0.1:0",
		"-tick", "500us", "-linger", "0s", "-seed", "3",
		"-drop", "0.1", "-partition", "2:10:0-3/4-7",
	}
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, sb.String())
	}
	out := sb.String()
	for _, w := range []string{"completed=true", "faults: injected-drops=", " dups=", "partitions=1\n"} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
}

// TestListenFDInheritance exercises the supervisor handoff: the "parent"
// binds the port, hands the descriptor over, and the daemon serves on it
// without ever re-binding — the reserved address cannot be stolen in
// between. In-process we dup the descriptor and give run() sole ownership,
// exactly the lifetime a child process would see on fd 3.
func TestListenFDInheritance(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	f, err := ln.(*net.TCPListener).File()
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	fd, err := syscall.Dup(int(f.Fd()))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	args := []string{
		"-graph", "clique", "-n", "8",
		"-listen-fd", strconv.Itoa(fd),
		"-tick", "500us", "-linger", "0s", "-seed", "3",
	}
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, sb.String())
	}
	out := sb.String()
	for _, w := range []string{"listen=" + addr, "completed=true", "informed=8/8"} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
}

// TestTwoDaemonUnixFabric addresses each side of a dumbbell by the unix
// socket its daemon opens with -listen-unix: every cross-daemon frame must
// ride the socket (local-frames == frames in the wire ledger) and the drain
// must stay clean. Each daemon still has its TCP listener; nothing dials it.
func TestTwoDaemonUnixFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("two-daemon cluster run is not -short friendly")
	}
	dir := t.TempDir()
	socks := []string{filepath.Join(dir, "d0.sock"), filepath.Join(dir, "d1.sock")}
	peers := fmt.Sprintf("0-3=unix://%s,4-7=unix://%s", socks[0], socks[1])
	common := []string{
		"-graph", "dumbbell", "-s", "4", "-latency", "2",
		"-proto", "pushpull", "-seed", "7",
		"-tick", "1ms", "-linger", "2s",
		"-listen", "127.0.0.1:0", "-peers", peers,
	}
	var wg sync.WaitGroup
	outs := make([]strings.Builder, 2)
	errs := make([]error, 2)
	for i, nodes := range []string{"0-3", "4-7"} {
		wg.Add(1)
		go func(i int, nodes string) {
			defer wg.Done()
			args := append([]string{"-listen-unix", socks[i], "-nodes", nodes}, common...)
			errs[i] = run(args, &outs[i])
		}(i, nodes)
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("daemon %d: %v\n%s", i, errs[i], outs[i].String())
		}
		out := outs[i].String()
		for _, w := range []string{"completed=true", "informed=4/4", "drain: clean=true"} {
			if !strings.Contains(out, w) {
				t.Errorf("daemon %d output missing %q:\n%s", i, w, out)
			}
		}
		var frames, wireBytes, localFrames, localBytes int64
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "wire: ") {
				fmt.Sscanf(line, "wire: frames=%d bytes=%d local-frames=%d local-bytes=%d",
					&frames, &wireBytes, &localFrames, &localBytes)
			}
		}
		if frames == 0 || localFrames != frames {
			t.Errorf("daemon %d leaked frames onto TCP: local-frames=%d/%d\n%s",
				i, localFrames, frames, out)
		}
	}
}

// reservePorts grabs n distinct loopback addresses and releases them so the
// daemons under test can claim them. (The tiny window between release and
// re-listen is tolerable on loopback; the dial retry covers start order.)
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}
