package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procsUnixFlood is the deployment shape: gossipctl launches two freshly
// built gossipd processes that each generate the graph, flood it over the
// unix-socket fabric, linger, drain and exit. It is the only workload with
// process boundaries in the timed path, so it is measured from outside only:
// timestamped -v lines and the fleet's rusage.
var procsUnixFlood = workload{name: "procs-unix-flood", minReps: 5, warmup: true, children: true, rep: procsRep, finish: procsFinish}

const procsNodes = 200000

func procsArgs(seed uint64) []string {
	return []string{
		"-gossipd", filepath.Join(buildDir, "bin", "gossipd"),
		"-daemons", "2", "-graph", "ringchords", "-n", strconv.Itoa(procsNodes), "-chords", "4", "-latmax", "16",
		"-proto", "flood", "-tick", "1ms", "-linger", "500ms", "-local-fabric", "unix", "-v",
		"-seed", strconv.FormatUint(seed, 10),
	}
}

// stampedLine is one line of gossipctl's output and when it was read, in
// seconds since the command was started.
type stampedLine struct {
	at   float64
	text string
}

func procsRep(r *run, idx int, _ bool, rec *recorder) error {
	repSpan := r.tracer.begin("gossipctl exec→exit", idx, -1)
	cmd := exec.Command(filepath.Join(buildDir, "bin", "gossipctl"), procsArgs(r.seeds.Graph)...)
	// gossipctl puts the daemons' sockets under TMPDIR. A relative one keeps
	// them inside the checkout and their paths short of the 108-byte limit.
	cmd.Env = append(os.Environ(), "TMPDIR="+filepath.Join(buildDir, "tmp"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start gossipctl (run benchmark/run.sh, which builds it): %w", err)
	}
	var lines []stampedLine
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		lines = append(lines, stampedLine{time.Since(start).Seconds(), sc.Text()})
	}
	werr := cmd.Wait()
	fleetS := r.tracer.end(repSpan)

	daemons := parseFleet(lines)
	r.attempted += procsNodes
	reported := 0
	for _, d := range daemons {
		if d.hosted > 0 {
			reported++
		}
	}
	if werr != nil {
		// gossipctl also fails a fleet whose nodes were all informed, when a
		// daemon's drain was not clean. That is not an uninformed node: the
		// repetition stays a sample (its fleet_wall_s carries the drain
		// timeout) and the unclean drain is counted.
		fmt.Printf("note: procs-unix-flood rep %d: gossipctl: %v\n%s", idx, werr, stderr.String())
	}
	if reported != 2 {
		r.failed += procsNodes
		return nil
	}
	var informed, hosted, msgs, dropped, retransmits, shed, frames, wireBytes, localFrames, unclean int64
	bannerAt, completedAt, drainS := 0.0, 0.0, 0.0
	wallMin, wallMax := math.Inf(1), 0.0
	for _, d := range daemons {
		informed += d.informed
		hosted += d.hosted
		msgs += d.messages
		dropped += d.dropped
		retransmits += d.retransmits
		shed += d.shedQueue
		frames += d.frames
		wireBytes += d.wireBytes
		localFrames += d.localFrames
		if !d.drainClean {
			unclean++
		}
		bannerAt = math.Max(bannerAt, d.bannerAt)
		completedAt = math.Max(completedAt, d.completedAt)
		drainS = math.Max(drainS, d.drainWallS)
		wallMin, wallMax = math.Min(wallMin, d.wallS), math.Max(wallMax, d.wallS)
	}
	r.failed += int(procsNodes - informed)
	if hosted != procsNodes || msgs == 0 || wallMax <= 0 {
		r.fail("procs-unix-flood rep %d: daemons host %d of %d nodes, sent %d messages, wall %.3fs", idx, hosted, procsNodes, msgs, wallMax)
		return nil
	}
	user, sys := cmd.ProcessState.UserTime().Seconds(), cmd.ProcessState.SystemTime().Seconds()

	rec.add("setup_s", bannerAt)
	rec.add("inform_wall_s", wallMax)
	rec.add("msgs_per_s", float64(msgs)/wallMax)
	rec.add("cpu_us_per_msg", (user+sys)*1e6/float64(msgs))
	rec.add("fleet_wall_s", fleetS)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rec.add("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}

	rec.add("wire_bytes_per_node", float64(wireBytes)/procsNodes)
	rec.add("procs.spawn_to_banner_s", bannerAt)
	rec.add("procs.daemon_wall_s_min", wallMin)
	rec.add("procs.daemon_wall_s_max", wallMax)
	rec.add("procs.completed_to_exit_s", fleetS-completedAt)
	rec.add("procs.drain_wall_s", drainS)
	rec.add("procs.drain_unclean", float64(unclean))
	rec.add("procs.cpu_user_s", user)
	rec.add("procs.cpu_sys_s", sys)
	rec.add("procs.dropped", float64(dropped))
	rec.add("procs.retransmits", float64(retransmits))
	rec.add("procs.shed_queue", float64(shed))
	rec.add("procs.wire_frames", float64(frames))
	rec.add("procs.wire_bytes", float64(wireBytes))
	rec.add("procs.local_frames", float64(localFrames))
	return nil
}

// procsFinish totals the unclean drains: the median over repetitions of a
// rare event is always 0.
func procsFinish(_ *run, rec *recorder) {
	rec.set("procs.drain_unclean", rec.sum("procs.drain_unclean"))
}

// daemonReport is what one gossipd said about itself on its -v lines.
type daemonReport struct {
	bannerAt, completedAt float64
	informed, hosted      int64
	messages, dropped     int64
	wallS, drainWallS     float64
	drainClean            bool
	retransmits           int64
	shedQueue             int64
	frames, wireBytes     int64
	localFrames           int64
}

// parseFleet folds the daemons' lines of gossipctl -v output — each behind a
// "d<i>: " prefix — into per-daemon reports; gossipctl's own lines and
// anything else are skipped.
func parseFleet(lines []stampedLine) map[string]*daemonReport {
	daemons := map[string]*daemonReport{}
	for _, l := range lines {
		id, rest, ok := strings.Cut(l.text, ": ")
		if !ok || !strings.HasPrefix(id, "d") {
			continue
		}
		if _, err := strconv.Atoi(id[1:]); err != nil {
			continue
		}
		d := daemons[id]
		if d == nil {
			d = &daemonReport{}
			daemons[id] = d
		}
		kv := keyValues(rest)
		switch {
		case strings.HasPrefix(rest, "gossipd:"):
			d.bannerAt = l.at
		case strings.HasPrefix(rest, "completed="):
			d.completedAt = l.at
			fmt.Sscanf(kv["informed"], "%d/%d", &d.informed, &d.hosted)
			d.messages = atoi(kv["messages"])
			d.dropped = atoi(kv["dropped"])
			d.wallS = seconds(kv["wall"])
		case strings.HasPrefix(rest, "faults:"):
			d.retransmits = atoi(kv["retransmits"])
		case strings.HasPrefix(rest, "overload:"):
			d.shedQueue = atoi(kv["shed-queue"])
		case strings.HasPrefix(rest, "drain:"):
			d.drainWallS = seconds(kv["wall"])
			d.drainClean = kv["clean"] == "true"
		case strings.HasPrefix(rest, "wire:"):
			d.frames = atoi(kv["frames"])
			d.wireBytes = atoi(kv["bytes"])
			d.localFrames = atoi(kv["local-frames"])
		}
	}
	return daemons
}

// keyValues splits a line into its key=value fields.
func keyValues(line string) map[string]string {
	kv := map[string]string{}
	for _, field := range strings.Fields(line) {
		if k, v, ok := strings.Cut(field, "="); ok {
			kv[k] = v
		}
	}
	return kv
}

func atoi(s string) int64 {
	v, _ := strconv.ParseInt(s, 10, 64)
	return v
}

func seconds(s string) float64 {
	d, _ := time.ParseDuration(s)
	return d.Seconds()
}
