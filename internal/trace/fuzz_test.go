package trace

// Fuzzing for the decode surfaces a replay crosses: the per-job strict
// decoder (DecodeJob — also the service's POST body format), the
// streamed framing (Stream.Next over arbitrary bytes), the binary job
// body behind a correct checksum (FuzzFramePayload — a mutated whole
// stream dies at the CRC and never reaches it), and the replay harness
// property that whatever a stream yields, the online engine's
// InjectJob either rejects it (duplicate ID) or clamps its arrival
// forward — torn frames, duplicate IDs, and out-of-order arrivals must
// all die at a typed error, never a panic or a rewritten history.

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sim"
	"dollymp/internal/workload"
)

// fuzzSeedStream builds a small valid stream to seed the corpus.
func fuzzSeedStream(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	if err := DefaultGoogleLike(n, 2, 3).Emit(w.Append); err != nil {
		tb.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzStreamNext drives the frame decoder over arbitrary bytes: it must
// never panic, every error must be typed or a clean EOF, offsets must
// be monotone, and every job it does yield must validate.
func FuzzStreamNext(f *testing.F) {
	valid := fuzzSeedStream(f, 4)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])              // torn payload
	f.Add(valid[:streamHeaderLen+5])         // torn frame header
	f.Add(valid[:streamHeaderLen])           // header only
	f.Add([]byte("dollytrc"))                // magic, no version
	f.Add([]byte(`{"version":1,"jobs":[]}`)) // JSON envelope, wrong format
	flipped := append([]byte(nil), valid...)
	flipped[streamHeaderLen+10] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		prevOff := s.Offset()
		for {
			j, err := s.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("untyped stream error: %v", err)
				}
				if ce.Offset < int64(streamHeaderLen) || ce.Offset > int64(len(data)) {
					t.Fatalf("corrupt offset %d outside stream of %d bytes", ce.Offset, len(data))
				}
				return
			}
			if err := j.Validate(); err != nil {
				t.Fatalf("stream yielded an invalid job: %v", err)
			}
			if s.Offset() <= prevOff {
				t.Fatalf("offset did not advance: %d -> %d", prevOff, s.Offset())
			}
			prevOff = s.Offset()
		}
	})
}

// FuzzFramePayload hands arbitrary bytes to the job decoder as the
// payload of a frame whose length and checksum are right. The frame is
// either refused with a *CorruptError naming it, or yields a valid job
// whose own encoding is exactly those bytes: the format has one spelling
// per job, so nothing a decoder accepts differs from what a writer
// would have written.
func FuzzFramePayload(f *testing.F) {
	for _, j := range DefaultGoogleLike(3, 2, 3).Generate() {
		f.Add(appendJob(nil, j))
	}
	golden := appendJob(nil, goldenJob())
	f.Add(golden)
	f.Add(golden[:len(golden)-1])
	f.Add([]byte{})
	for _, p := range hostilePayloads() {
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := NewStream(bytes.NewReader(framed(payload)))
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Next()
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Frame != 0 || ce.Offset != int64(streamHeaderLen) {
				t.Fatalf("frame 0 refused without its position: %v", err)
			}
			return
		}
		if err := j.Validate(); err != nil {
			t.Fatalf("stream yielded an invalid job: %v", err)
		}
		if again := appendJob(nil, j); !bytes.Equal(again, payload) {
			t.Fatalf("decoded job re-encodes differently:\n in  % x\n out % x", payload, again)
		}
		if _, err := s.Next(); err != io.EOF {
			t.Fatalf("after the only frame: %v", err)
		}
	})
}

// FuzzDecodeJob drives the strict single-job decoder over arbitrary
// bytes: no panics, and success implies a valid job.
func FuzzDecodeJob(f *testing.F) {
	var buf bytes.Buffer
	for _, j := range DefaultGoogleLike(3, 2, 9).Generate() {
		buf.Reset()
		if err := Write(&buf, []*workload.Job{j}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte(`{"ID":1,"Name":"x","App":"a","Arrival":0,"Phases":[{"Name":"p","Tasks":1,"Demand":{"CPUMilli":100,"MemMiB":10},"MeanDuration":2,"SDDuration":0,"Parents":null}]}`))
	f.Add([]byte(`{"ID":1`))
	f.Add([]byte(`null`))
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := DecodeJob(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := j.Validate(); err != nil {
			t.Fatalf("DecodeJob returned an invalid job: %v", err)
		}
	})
}

// FuzzStreamReplay feeds whatever a (possibly corrupt) stream yields
// into an online engine the way the replay path does: duplicate IDs
// must be rejected, and every accepted arrival must be clamped to the
// current clock — a stream can never rewrite engine history, only fail.
func FuzzStreamReplay(f *testing.F) {
	valid := fuzzSeedStream(f, 6)
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	// Duplicate IDs: append the stream's own frames after the header.
	dup := append([]byte(nil), valid...)
	dup = append(dup, valid[streamHeaderLen:]...)
	f.Add(dup)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		scheduler, err := core.New(core.WithClones(0))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sim.New(sim.Config{
			Cluster:       cluster.Uniform(2, resources.Cores(64, 128)),
			Scheduler:     scheduler,
			Seed:          1,
			Online:        true,
			Deterministic: true,
			MaxSlots:      1 << 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[workload.JobID]bool)
		injected := 0
		for injected < 64 {
			j, err := s.Next()
			if err != nil {
				break // EOF or corruption: replay stops either way
			}
			clock := eng.Clock()
			arr, err := eng.InjectJob(j)
			if seen[j.ID] {
				if err == nil {
					t.Fatalf("duplicate job ID %d accepted", j.ID)
				}
				continue
			}
			if err != nil {
				t.Fatalf("valid job %d rejected: %v", j.ID, err)
			}
			seen[j.ID] = true
			injected++
			if arr < clock {
				t.Fatalf("job %d admitted into the past: arrival %d < clock %d", j.ID, arr, clock)
			}
			// Interleave stepping so clamping against a moving clock is
			// exercised, as in a real replay.
			if injected%2 == 0 {
				if _, err := eng.Step(); err != nil {
					t.Fatalf("step: %v", err)
				}
			}
		}
	})
}
