package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dollymp/internal/workload"
)

func streamJobs(t *testing.T, n int) []*workload.Job {
	t.Helper()
	jobs := DefaultGoogleLike(n, 3, 42).Generate()
	if len(jobs) != n {
		t.Fatalf("generated %d jobs, want %d", len(jobs), n)
	}
	return jobs
}

func encodeStream(t testing.TB, jobs []*workload.Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := w.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamRoundTrip writes jobs as frames and reads them back
// identical, ending in a clean io.EOF.
func TestStreamRoundTrip(t *testing.T) {
	jobs := streamJobs(t, 50)
	raw := encodeStream(t, jobs)
	if !IsStream(raw) {
		t.Fatal("encoded stream not recognized by IsStream")
	}
	s, err := NewStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range jobs {
		got, err := s.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d round-trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("clean end must be io.EOF, got %v", err)
	}
	if s.Decoded() != int64(len(jobs)) {
		t.Fatalf("decoded %d frames, want %d", s.Decoded(), len(jobs))
	}
	if s.Offset() != int64(len(raw)) {
		t.Fatalf("final offset %d, want file size %d", s.Offset(), len(raw))
	}
}

// TestStreamFileRoundTrip covers the file-backed helpers.
func TestStreamFileRoundTrip(t *testing.T) {
	jobs := streamJobs(t, 20)
	path := filepath.Join(t.TempDir(), "t.trace")
	w, err := CreateStream(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := w.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 20 {
		t.Fatalf("count %d, want 20", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 20 {
		t.Fatalf("read %d jobs, want 20", n)
	}
}

// TestStreamTornAtEveryOffset truncates a small stream at every byte
// position: every truncation either still yields an intact prefix
// ending in a *CorruptError whose offset names the torn frame, or (on
// a frame boundary) a clean EOF with fewer jobs.
func TestStreamTornAtEveryOffset(t *testing.T) {
	jobs := streamJobs(t, 5)
	raw := encodeStream(t, jobs)
	for cut := 0; cut < len(raw); cut++ {
		s, err := NewStream(bytes.NewReader(raw[:cut]))
		if err != nil {
			// Header itself torn: must be typed.
			var ce *CorruptError
			if cut >= streamHeaderLen || !errors.As(err, &ce) {
				t.Fatalf("cut %d: open failed untyped: %v", cut, err)
			}
			continue
		}
		decoded := 0
		for {
			_, err := s.Next()
			if err == nil {
				decoded++
				continue
			}
			if err == io.EOF {
				break // clean frame boundary
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("cut %d: untyped error after %d jobs: %v", cut, decoded, err)
			}
			if ce.Offset < int64(streamHeaderLen) || ce.Offset > int64(cut) {
				t.Fatalf("cut %d: corrupt offset %d outside (header, cut]", cut, ce.Offset)
			}
			// Errors are sticky.
			if _, err2 := s.Next(); err2 != err {
				t.Fatalf("cut %d: error not sticky: %v then %v", cut, err, err2)
			}
			break
		}
		if decoded > len(jobs) {
			t.Fatalf("cut %d: decoded %d jobs from a truncated stream of %d", cut, decoded, len(jobs))
		}
	}
}

// TestStreamChecksumMismatch flips one payload byte: the CRC must catch
// it and name the frame.
func TestStreamChecksumMismatch(t *testing.T) {
	raw := encodeStream(t, streamJobs(t, 3))
	// Flip a byte well into the first frame's payload.
	mut := append([]byte(nil), raw...)
	mut[streamHeaderLen+8+4] ^= 0xff
	s, err := NewStream(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Next()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("flipped byte not detected as corruption: %v", err)
	}
	if ce.Frame != 0 || ce.Offset != int64(streamHeaderLen) {
		t.Fatalf("corruption attributed to frame %d offset %d, want frame 0 offset %d", ce.Frame, ce.Offset, streamHeaderLen)
	}
	if !strings.Contains(ce.Error(), "checksum") {
		t.Fatalf("error does not mention the checksum: %v", ce)
	}
}

// TestStreamRejectsWrongMagicAndVersion pins the header checks.
func TestStreamRejectsWrongMagicAndVersion(t *testing.T) {
	if _, err := NewStream(strings.NewReader(`{"version":1,"jobs":[]}`)); err == nil {
		t.Fatal("JSON envelope accepted as a stream")
	}
	bad := append([]byte(nil), streamMagic[:]...)
	bad = append(bad, 99, 0, 0, 0) // version 99
	if _, err := NewStream(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version must be rejected by name, got %v", err)
	}
}

// TestStreamRejectsInvalidJob: a well-framed payload that fails job
// validation is corruption, not a silently-admitted job.
func TestStreamRejectsInvalidJob(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&workload.Job{ID: 1}); err == nil {
		t.Fatal("StreamWriter accepted a job with no phases")
	}
}

// TestReadTruncatedTypedError: the JSON envelope reader reports
// truncation as a *CorruptError naming the byte offset, not a bare
// unexpected-EOF.
func TestReadTruncatedTypedError(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, streamJobs(t, 4)); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	cut := whole[:len(whole)/2]
	_, err := Read(bytes.NewReader(cut))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("truncated envelope not typed: %v", err)
	}
	if ce.Offset <= 0 || ce.Offset > int64(len(cut)) {
		t.Fatalf("truncation offset %d outside (0, %d]", ce.Offset, len(cut))
	}
	if !strings.Contains(err.Error(), "byte") {
		t.Fatalf("error does not name the byte offset: %v", err)
	}
	// An intact envelope still round-trips.
	jobs, err := Read(bytes.NewReader(whole))
	if err != nil || len(jobs) != 4 {
		t.Fatalf("intact envelope: %d jobs, err %v", len(jobs), err)
	}
}

// TestEmitMatchesGenerate pins the streaming generator to the
// materializing one bit-for-bit, and its early-exit contract.
func TestEmitMatchesGenerate(t *testing.T) {
	g := DefaultGoogleLike(200, 2.5, 7)
	want := g.Generate()
	var got []*workload.Job
	if err := g.Emit(func(j *workload.Job) error {
		got = append(got, j)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Emit and Generate disagree")
	}
	sentinel := errors.New("stop")
	n := 0
	if err := g.Emit(func(*workload.Job) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	}); err != sentinel {
		t.Fatalf("emit error not propagated: %v", err)
	}
	if n != 3 {
		t.Fatalf("generation continued after emit error: %d calls", n)
	}
}

// TestStreamGenerationConstantMemory streams a trace to disk via Emit
// and reads it back counting jobs, without ever holding the job list.
func TestStreamGenerationConstantMemory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.trace")
	w, err := CreateStream(path)
	if err != nil {
		t.Fatal(err)
	}
	g := DefaultGoogleLike(1000, 1.5, 11)
	if err := g.Emit(w.Append); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= int64(streamHeaderLen) {
		t.Fatalf("trace file implausibly small: %d bytes", fi.Size())
	}
	s, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var prevArrival int64
	n := 0
	for {
		j, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if j.Arrival < prevArrival {
			t.Fatalf("job %d arrival %d before predecessor's %d: generator must emit in arrival order", j.ID, j.Arrival, prevArrival)
		}
		prevArrival = j.Arrival
		n++
	}
	if n != 1000 {
		t.Fatalf("replayed %d jobs, want 1000", n)
	}
}
