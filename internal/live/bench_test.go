package live

import (
	"bufio"
	"io"
	"testing"
)

// BenchmarkLiveTCPCodec isolates the codec with no sockets: one encode+decode
// round trip of a push-pull frame per iteration.
func BenchmarkLiveTCPCodec(b *testing.B) {
	w := wireMessage{Kind: 1, From: 0, To: 1, EdgeID: 1, Latency: 1, SentTick: 1,
		PayloadType: "live_test.bit", Payload: []byte(`true`)}
	b.Run("binary", func(b *testing.B) {
		var enc wireEnc
		var dec wireDec
		r := &loopReader{}
		br := bufio.NewReader(r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.SentTick++
			r.buf = enc.appendFrame(r.buf[:0], &w, 0)
			r.off = 0
			br.Reset(r)
			if _, _, _, err := dec.readFrameMulti(br); err != nil {
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
