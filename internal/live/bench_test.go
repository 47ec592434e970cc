package live

import (
	"bufio"
	"fmt"
	"io"
	"testing"
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

// BenchmarkEnqueueAtCap sends steadily toward a parked connection already at
// its writer-queue cap, so every send sheds the oldest queued frame.
func BenchmarkEnqueueAtCap(b *testing.B) {
	for _, limit := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			tr, cleanup := overloadPair(b)
			defer cleanup()
			tr.SetOverloadLimits(limit)
			msg := testMsg(1, MsgRequest, 0)
			for i := 0; i < limit; i++ {
				if err := tr.Send(msg, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg.SentTick = i
				if err := tr.Send(msg, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
