//go:build !race

package trace

// Pins of what the generators produce, and of what generating and
// decoding a job allocates. The digests hold the generated jobs byte for
// byte, through the stream encoding (every field the format carries,
// Parents included), so a change to how a generator builds its jobs
// must reproduce them exactly. The allocation counts are read from a
// process-wide counter, which the race detector inflates: all of them
// run without it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"testing"

	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

// streamDigest returns the SHA-256 of jobs encoded as a stream.
func streamDigest(t *testing.T, jobs []*workload.Job) string {
	t.Helper()
	var out bytes.Buffer
	w, err := NewStreamWriter(&out)
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
	sum := sha256.Sum256(out.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGeneratedStreamDigests pins the bytes of every generator's jobs.
func TestGeneratedStreamDigests(t *testing.T) {
	templates := func() []*workload.Job {
		rng := stats.NewRNG(3)
		var jobs []*workload.Job
		for i := 0; i < 40; i++ {
			id := workload.JobID(i)
			switch i % 4 {
			case 0:
				jobs = append(jobs, WordCount(id, int64(i), 2, rng.Split(uint64(i))))
			case 1:
				jobs = append(jobs, PageRank(id, int64(i), 1, rng.Split(uint64(i))))
			case 2:
				jobs = append(jobs, TeraSort(id, int64(i), 4, rng.Split(uint64(i))))
			default:
				jobs = append(jobs, MLIteration(id, int64(i), 2, rng.Split(uint64(i))))
			}
		}
		return jobs
	}
	homogeneous := func(app string) func() []*workload.Job {
		return func() []*workload.Job {
			jobs, err := Homogeneous(app, 300, 5, Arrival{Kind: FixedInterval, MeanGap: 4}, 11)
			if err != nil {
				t.Fatal(err)
			}
			return jobs
		}
	}
	for _, c := range []struct {
		name string
		jobs func() []*workload.Job
		want string
	}{
		{"google-like", func() []*workload.Job { return DefaultGoogleLike(5000, 1.0, 42).Generate() },
			"ae59033d99403a9fd9b478fb7c71b791cf65a92bf90dde7ff91f3af16f3c7aaa"},
		{"mixed-deployment", func() []*workload.Job {
			return MixedDeployment(400, Arrival{Kind: Poisson, MeanGap: 20}, 7)
		}, "97bebde6bc6bbe0769bd9769ff71205c502e3564a171986d155e2f0377aad155"},
		{"homogeneous-wordcount", homogeneous("wordcount"), "97f8d7b491f7eeaaadee05f689ee80bc108744e25bf356b610949ad30959d44d"},
		{"homogeneous-pagerank", homogeneous("pagerank"), "6f8b0887d16436d5f221953824191a60bea6dd3ad2b812508ea4cd618c2fe7a0"},
		{"templates", templates, "9b05057c9cad25b91e63bf49ce1b84dd994d00bcdecc814489826f2aff8eaa4b"},
	} {
		if got := streamDigest(t, c.jobs()); got != c.want {
			t.Errorf("%s: stream digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestGoogleLikeAllocsPerJob pins the heap objects GoogleLike.Emit
// allocates per job it hands out.
func TestGoogleLikeAllocsPerJob(t *testing.T) {
	const n = 20_000
	g := DefaultGoogleLike(n, 1.0, 42)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := g.Emit(func(*workload.Job) error { return nil }); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perJob := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.2f objects per generated job", perJob)
	// Measured 1.02: the name's bytes, and a job, a phase and a parents
	// block per 128 jobs (6.98 with a fmt.Sprintf per name and a Parents
	// slice per phase).
	if perJob > 1.1 {
		t.Fatalf("%.2f objects allocated per generated job, want at most 1.1", perJob)
	}
}

// TestStreamDecodeAllocsPerFrame pins the heap objects Stream.Next
// allocates per frame it decodes, over the repo benchmark's generator
// settings.
func TestStreamDecodeAllocsPerFrame(t *testing.T) {
	raw := encodeStream(t, DefaultGoogleLike(benchFrames, 1.0, 42).Generate())
	s, err := NewStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for {
		if _, err := s.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.Mallocs-before.Mallocs) / float64(s.Decoded())
	t.Logf("%.2f objects per decoded frame", perFrame)
	// Measured 3.67: the job, its name, its phases and, for the two
	// jobs in three with more than one phase, its parents array. The
	// labels are interned and the frame header is read into the Stream
	// (8.00 with a string per label, a Parents slice per phase and the
	// header on the heap).
	if perFrame > 3.75 {
		t.Fatalf("%.2f objects allocated per decoded frame, want at most 3.75", perFrame)
	}
}
