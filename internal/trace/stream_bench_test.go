package trace

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// benchFrames is how many Google-like jobs (the repo benchmark's
// generator settings) one iteration of the stream benchmarks moves.
const benchFrames = 10_000

// reportPerFrame reports an iteration's cost per frame: time, the
// stream's own bytes (a format property, not heap), and heap objects.
func reportPerFrame(b *testing.B, streamBytes int, mallocs uint64) {
	frames := float64(b.N) * benchFrames
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
	b.ReportMetric(float64(streamBytes-streamHeaderLen)/benchFrames, "B/frame")
	b.ReportMetric(float64(mallocs)/frames, "allocs/frame")
}

// BenchmarkStreamAppend measures the writer: validate, encode, checksum.
func BenchmarkStreamAppend(b *testing.B) {
	jobs := DefaultGoogleLike(benchFrames, 1.0, 42).Generate()
	var out bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		w, err := NewStreamWriter(&out)
		if err != nil {
			b.Fatal(err)
		}
		for _, j := range jobs {
			if err := w.Append(j); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	reportPerFrame(b, out.Len(), after.Mallocs-before.Mallocs)
}

// BenchmarkStreamNext measures the reader a replay pays once per job:
// frame read, checksum, decode, validate.
func BenchmarkStreamNext(b *testing.B) {
	raw := encodeStream(b, DefaultGoogleLike(benchFrames, 1.0, 42).Generate())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewStream(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := s.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		if s.Decoded() != benchFrames {
			b.Fatalf("decoded %d frames, want %d", s.Decoded(), benchFrames)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	reportPerFrame(b, len(raw), after.Mallocs-before.Mallocs)
}
