package live

import (
	"bufio"
	"io"
	"testing"
	"time"

	"gossip/internal/graph"
)

// benchTick makes SentTick globally unique across benchmark iterations so
// receiver dedup never suppresses a benchmark message.
var benchTick int

// benchLiveStream measures pipelined one-way delivery between two transports
// on the given fabric: b.N push-pull-sized messages are sent with zero
// latency delay while a drain goroutine consumes them, so the measured cost
// is the wire path — encode, batched write, read, ack, decode — not the
// protocol round trip. Reported metrics: msgs/sec and total wire bytes per
// delivered message (data frames from the sender plus ack traffic from the
// receiver).
func benchLiveStream(b *testing.B, fabric string, window time.Duration) {
	src, _ := newFabricTransport(b, fabric, []graph.NodeID{0}, 4096)
	defer src.Close()
	dst, dstAddr := newFabricTransport(b, fabric, []graph.NodeID{1}, 4096)
	defer dst.Close()
	src.SetFlushWindow(window)
	dst.SetFlushWindow(window)
	// A generous RTO keeps retransmissions out of a loopback measurement,
	// and unbounded queues keep the overload protection from shedding a
	// deliberately unthrottled firehose (the shed path has its own
	// benchmark: BenchmarkLiveTCPOverloadShed).
	src.SetRetransmit(10*time.Second, 4)
	src.SetOverloadLimits(-1, -1)
	src.SetPeers(map[graph.NodeID]string{1: dstAddr})

	msg := Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, Latency: 1, Payload: bitp{informed: true}}

	// Establish the pooled connection outside the timed region.
	msg.SentTick = benchTick
	benchTick++
	if err := src.Send(msg, 0); err != nil {
		b.Fatal(err)
	}
	<-dst.Recv(1)
	startBytes := src.WireBytesOut() + dst.WireBytesOut()

	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		inbox := dst.Recv(1)
		for i := 0; i < b.N; i++ {
			<-inbox
		}
	}()
	for i := 0; i < b.N; i++ {
		msg.SentTick = benchTick
		benchTick++
		if err := src.Send(msg, 0); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()

	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
	// Let the tail of the ack traffic land before reading the counters.
	deadline := time.Now().Add(5 * time.Second)
	for src.pendingCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	wire := src.WireBytesOut() + dst.WireBytesOut() - startBytes
	b.ReportMetric(float64(wire)/float64(b.N), "wireB/msg")
	if d := src.Dropped() + dst.Dropped(); d > 0 {
		b.Fatalf("%d messages dropped during benchmark", d)
	}
}

// BenchmarkLiveTCPBatched is the transport as it ships: everything bound for
// the same daemon that accumulates during the previous socket write coalesces
// into one FrameBatch frame with one pend entry, one retransmission timer and
// one ack for the whole batch.
func BenchmarkLiveTCPBatched(b *testing.B) { benchLiveStream(b, "tcp", 0) }

// BenchmarkLiveTCPBatchedWindowed widens the aggregation window to 200µs:
// bigger super-frames still, at the cost of added delivery latency.
func BenchmarkLiveTCPBatchedWindowed(b *testing.B) {
	benchLiveStream(b, "tcp", 200*time.Microsecond)
}

// BenchmarkLiveUDS is BenchmarkLiveTCPBatched with the loopback TCP link
// replaced by a unix-domain socket: the identical wire bytes skip the TCP
// stack (checksums, Nagle/cork logic, loopback queueing), which is the
// entire difference in the numbers.
func BenchmarkLiveUDS(b *testing.B) { benchLiveStream(b, "unix", 0) }

// BenchmarkLiveShmRing is the same workload over the in-process shared-ring
// fabric: frames move producer-to-consumer through lock-free SPSC byte
// rings, with no syscall on the hot path.
func BenchmarkLiveShmRing(b *testing.B) { benchLiveStream(b, "ring", 0) }

// BenchmarkLiveTCPOverloadShed measures the bounded-queue path under
// deliberate overload: a tiny writer-queue cap against an unthrottled
// firehose, so a large fraction of sends resolve by oldest-first shedding
// instead of reaching the wire. The interesting metrics are msgs/sec (the
// cost of admission control, not delivery) and sheds/op.
func BenchmarkLiveTCPOverloadShed(b *testing.B) {
	src, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	dst, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{1}, 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	// A tight queue cap, a generous pend cap: the shed decision happens at
	// enqueue time. Retransmission is off so shed entries are terminal.
	src.SetRetransmit(10*time.Second, -1)
	src.SetOverloadLimits(64, -1)
	src.SetPeers(map[graph.NodeID]string{1: dst.Addr().String()})

	msg := Message{Kind: MsgRequest, From: 0, To: 1, EdgeID: 1, Latency: 1, Payload: bitp{informed: true}}
	msg.SentTick = benchTick
	benchTick++
	if err := src.Send(msg, 0); err != nil {
		b.Fatal(err)
	}
	<-dst.Recv(1)

	// Drain whatever survives shedding; the consumer stops when the sender
	// is done and the inbox goes quiet.
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		inbox := dst.Recv(1)
		for {
			select {
			case <-inbox:
			case <-stop:
				for {
					select {
					case <-inbox:
					case <-time.After(50 * time.Millisecond):
						return
					}
				}
			}
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.SentTick = benchTick
		benchTick++
		if err := src.Send(msg, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-drained
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
	b.ReportMetric(float64(src.Overload().ShedQueue)/float64(b.N), "sheds/op")
}

// BenchmarkLiveTCPCodec isolates the codec with no sockets: one encode+decode
// round trip of a push-pull frame per iteration.
func BenchmarkLiveTCPCodec(b *testing.B) {
	w := wireMessage{Kind: 1, Seq: 1, From: 0, To: 1, EdgeID: 1, Latency: 1, SentTick: 1,
		PayloadType: "live_test.bit", Payload: []byte(`true`)}
	b.Run("binary", func(b *testing.B) {
		var enc wireEnc
		var dec wireDec
		r := &loopReader{}
		br := bufio.NewReader(r)
		var got wireMessage
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Seq++
			w.SentTick++
			r.buf = enc.appendFrame(r.buf[:0], &w, nil)
			r.off = 0
			br.Reset(r)
			if _, _, err := dec.readFrame(br, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// loopReader replays one in-memory frame per reset.
type loopReader struct {
	buf []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off >= len(r.buf) {
		return 0, io.EOF
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}
