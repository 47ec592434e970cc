package live

import (
	"bufio"
	"io"
	"testing"

	"gossip/internal/graph"
)

// BenchmarkLiveTCPCodec isolates the codec with no sockets: one encode+decode
// round trip of a push-pull frame per iteration.
func BenchmarkLiveTCPCodec(b *testing.B) {
	w := []wireMessage{{Kind: 1, From: 0, To: 1, EdgeID: 1, Latency: 1, SentTick: 1,
		Payload: bitp{informed: true}}}
	b.Run("binary", func(b *testing.B) {
		var enc wireEnc
		var dec wireDec
		r := &loopReader{}
		br := bufio.NewReader(r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w[0].SentTick++
			r.buf, _ = enc.appendBatchFrame(r.buf[:0], w, 0)
			r.off = 0
			br.Reset(r)
			if _, _, err := dec.readFrameMulti(br); err != nil {
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

// BenchmarkEnqueue sends steadily toward a parked connection: every send is
// a plain append to the writer queue. The benchmark stands in for the
// writer, taking the queue and recycling its chunks after every full chunk,
// so memory stays flat and a steady send allocates nothing.
func BenchmarkEnqueue(b *testing.B) {
	tr, cleanup := overloadPair(b)
	defer cleanup()
	msg := testMsg(1, MsgRequest, 0)
	if err := tr.Send(msg, 0); err != nil {
		b.Fatal(err)
	}
	cs := tr.routes.Load().lookup(1).out.Load()
	drain := func() {
		n := 0
		for c := cs.take(); c != nil; {
			next := c.next
			n += c.n
			chunkPool.Put(c)
			c = next
		}
		cs.release(n)
	}
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.SentTick = i
		if err := tr.Send(msg, 0); err != nil {
			b.Fatal(err)
		}
		if i%chunkFrames == chunkFrames-1 {
			drain()
		}
	}
}

// BenchmarkShardSweep times one sweep of a shard hosting 10k nodes whose
// handlers initiate nothing, so what it measures is the sweep itself: a
// working sweep visits every node (Done, Tick, the done flag), while a
// held or quiesced one, with membership off, touches no node at all.
func BenchmarkShardSweep(b *testing.B) {
	const n = 10_000
	g := graph.New(n).Build() // no edges: a node's Tick initiates nothing
	for _, mode := range []string{"working", "held", "quiesced"} {
		b.Run(mode, func(b *testing.B) {
			tr := NewChanTransport(n)
			defer tr.Close()
			rt := sweepRuntime(b, g, ppProto{source: 0}, tr, Options{Seed: 1, Shards: 1, MaxTicks: 1 << 62})
			switch mode {
			case "held":
				rt.cong = alwaysCongested{}
			case "quiesced":
				rt.quiesced.Store(true)
			}
			s := rt.shards[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.tick()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/node")
		})
	}
}
