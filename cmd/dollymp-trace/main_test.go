package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dollymp"
	"dollymp/internal/trace"
)

func TestGenerateWorkloads(t *testing.T) {
	// Every name dollymp-sim -workload runs, dollymp-trace generates.
	for _, wl := range dollymp.WorkloadNames() {
		for _, format := range []string{"json", "stream"} {
			t.Run(wl+"/"+format, func(t *testing.T) {
				var out bytes.Buffer
				if err := realMain(options{workload: wl, jobs: 5, gap: 4, seed: 1, format: format, out: "-"}, &out); err != nil {
					t.Fatal(err)
				}
				if isStream := trace.IsStream(out.Bytes()); isStream != (format == "stream") {
					t.Fatalf("output stream=%v", isStream)
				}
			})
		}
	}
	if err := realMain(options{workload: "nosuch", jobs: 5, format: "json", out: "-"}, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := realMain(options{workload: "google", jobs: 5, format: "csv", out: "-"}, io.Discard); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestStreamGenerationMatchesEnvelope: the streamed google trace holds
// the same jobs as the envelope one — same generator, same seed
// discipline — just framed.
func TestStreamGenerationMatchesEnvelope(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.trace")
	if err := realMain(options{workload: "google", jobs: 20, gap: 3, seed: 7, format: "stream", out: path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	s, err := trace.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := dollymp.GoogleWorkload(20, 3, 7)
	for i, wj := range want {
		j, err := s.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if j.ID != wj.ID || j.Arrival != wj.Arrival || len(j.Phases) != len(wj.Phases) {
			t.Fatalf("frame %d: got %v/%d, want %v/%d", i, j.ID, j.Arrival, wj.ID, wj.Arrival)
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("trailing frames: %v", err)
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "jobs.json")
	f, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, dollymp.GoogleWorkload(5, 3, 7)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := realMain(options{inspect: jsonPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "json envelope") || !strings.Contains(out.String(), "jobs:           5") {
		t.Fatalf("envelope inspect output:\n%s", out.String())
	}

	streamPath := filepath.Join(dir, "jobs.trace")
	if err := realMain(options{workload: "google", jobs: 5, gap: 3, seed: 7, format: "stream", out: streamPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := realMain(options{inspect: streamPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "format:         stream v2\n") || !strings.Contains(out.String(), "jobs:           5") ||
		!strings.Contains(out.String(), " per job)") {
		t.Fatalf("stream inspect output:\n%s", out.String())
	}

	if err := realMain(options{inspect: filepath.Join(dir, "missing.json")}, io.Discard); err == nil {
		t.Error("missing file accepted")
	}
}

// TestInspectSurfacesCorruption: a torn stream and a truncated envelope
// both inspect to the typed positional error.
func TestInspectSurfacesCorruption(t *testing.T) {
	dir := t.TempDir()
	streamPath := filepath.Join(dir, "torn.trace")
	if err := realMain(options{workload: "google", jobs: 5, gap: 3, seed: 7, format: "stream", out: streamPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(streamPath, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = realMain(options{inspect: streamPath}, &out)
	if err == nil || !strings.Contains(err.Error(), "byte ") {
		t.Fatalf("torn stream inspect must name the byte offset, got %v", err)
	}
	if !strings.Contains(out.String(), "jobs:           4") {
		t.Fatalf("intact prefix not described:\n%s", out.String())
	}

	jsonPath := filepath.Join(dir, "torn.json")
	var env bytes.Buffer
	if err := trace.Write(&env, dollymp.GoogleWorkload(5, 3, 7)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, env.Bytes()[:env.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	err = realMain(options{inspect: jsonPath}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "byte ") {
		t.Fatalf("truncated envelope inspect must name the byte offset, got %v", err)
	}
}

// TestCompact: envelope → stream conversion, and torn-stream compaction
// down to the intact prefix.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "jobs.json")
	f, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, dollymp.GoogleWorkload(6, 3, 7)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	streamPath := filepath.Join(dir, "jobs.trace")
	if err := realMain(options{compact: jsonPath, out: streamPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	s, err := trace.OpenStream(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := s.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	s.Close()
	if n != 6 {
		t.Fatalf("compacted stream holds %d jobs, want 6", n)
	}

	// Tear the stream and compact it back to the intact prefix.
	b, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(streamPath, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	fixed := filepath.Join(dir, "fixed.trace")
	if err := realMain(options{compact: streamPath, out: fixed}, io.Discard); err != nil {
		t.Fatal(err)
	}
	s2, err := trace.OpenStream(fixed)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n = 0
	for {
		if _, err := s2.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("compacted output must be fully intact: %v", err)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("torn-tail compaction kept %d jobs, want 5", n)
	}
}

// TestCompactInPlace: -compact X -o X used to truncate X before reading
// a frame of it. The input survives until its replacement is complete.
func TestCompactInPlace(t *testing.T) {
	for _, format := range []string{"json", "stream"} {
		path := filepath.Join(t.TempDir(), "t.trace")
		if err := realMain(options{workload: "google", jobs: 40, gap: 3, seed: 7, format: format, out: path}, io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := realMain(options{compact: path, out: path}, io.Discard); err != nil {
			t.Fatalf("%s: compact in place: %v", format, err)
		}
		var out bytes.Buffer
		if err := realMain(options{inspect: path}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "format:         stream v2\n") || !strings.Contains(out.String(), "jobs:           40\n") {
			t.Fatalf("%s compacted in place inspects as:\n%s", format, out.String())
		}
		assertOnlyFile(t, path)
	}
}

// TestFailedWriteKeepsPreviousFile: a write that fails part-way leaves
// the file that was there byte for byte, and no temporary beside it.
func TestFailedWriteKeepsPreviousFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := realMain(options{workload: "google", jobs: 10, gap: 3, seed: 7, format: "stream", out: path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = withOutput(path, io.Discard, func(w io.Writer) error {
		if _, err := w.Write(before[:len(before)/2]); err != nil {
			return err
		}
		return boom
	})
	if err != boom {
		t.Fatalf("withOutput returned %v, want fn's error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("previous file not intact after a failed write (%d bytes, was %d): %v", len(after), len(before), err)
	}
	assertOnlyFile(t, path)

	// The same through the CLI: a corrupt envelope cannot be compacted,
	// and the attempt must not cost the output that already exists.
	bad := filepath.Join(filepath.Dir(path), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"jobs":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := realMain(options{compact: bad, out: path}, io.Discard); err == nil {
		t.Fatal("corrupt envelope compacted")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("failed compaction overwrote the existing output")
	}
	if err := os.Remove(bad); err != nil {
		t.Fatal(err)
	}
	assertOnlyFile(t, path)
}

// assertOnlyFile fails if path's directory holds anything but path.
func assertOnlyFile(t *testing.T, path string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		t.Fatalf("directory of %s holds %v", path, entries)
	}
}
