package trace

// Tests of the binary frame payload (stream v2): what round-trips, the
// exact bytes, and what a decoder that sits behind a correct checksum
// must still refuse.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dollymp/internal/resources"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

// goldenJob is the two-phase job whose frame TestStreamGoldenFrame
// spells out.
func goldenJob() *workload.Job {
	return &workload.Job{
		ID: 7, Name: "wc", App: "wordcount", Arrival: 300, Tenant: "a",
		Phases: []workload.Phase{
			{Name: "map", Tasks: 4, Demand: resources.Vec(1000, 2048), MeanDuration: 10, SDDuration: 2.5},
			{Name: "reduce", Tasks: 2, Demand: resources.Vec(1500, 3072), MeanDuration: 6, Parents: []workload.PhaseID{0}},
		},
	}
}

// framed wraps payloads in a stream header and one frame each, with the
// length and checksum a writer would have stored, so that whatever the
// payload holds reaches the job decoder.
func framed(payloads ...[]byte) []byte {
	out := append([]byte(nil), streamMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, StreamVersion)
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
		out = append(out, p...)
	}
	return out
}

// TestStreamGoldenFrame pins the layout stream.go's file comment
// specifies. If this test has to change, the format changed: bump
// StreamVersion in the same commit.
func TestStreamGoldenFrame(t *testing.T) {
	want := []byte{
		'd', 'o', 'l', 'l', 'y', 't', 'r', 'c', // magic
		2, 0, 0, 0, // version
		75, 0, 0, 0, // payload length
		0x5e, 0x7c, 0xff, 0x13, // CRC32-IEEE(payload)
		0x0e,        // ID 7
		2, 'w', 'c', // Name
		9, 'w', 'o', 'r', 'd', 'c', 'o', 'u', 'n', 't', // App
		0xd8, 0x04, // Arrival 300
		1, 'a', // Tenant
		2, // phases
		3, 'm', 'a', 'p',
		0x08,       // Tasks 4
		0xd0, 0x0f, // CPUMilli 1000
		0x80, 0x20, // MemMiB 2048
		0, 0, 0, 0, 0, 0, 0x24, 0x40, // MeanDuration 10
		0, 0, 0, 0, 0, 0, 0x04, 0x40, // SDDuration 2.5
		0, // parents
		6, 'r', 'e', 'd', 'u', 'c', 'e',
		0x04,       // Tasks 2
		0xb8, 0x17, // CPUMilli 1500
		0x80, 0x30, // MemMiB 3072
		0, 0, 0, 0, 0, 0, 0x18, 0x40, // MeanDuration 6
		0, 0, 0, 0, 0, 0, 0, 0, // SDDuration 0
		1, 0, // parents: phase 0
	}
	got := encodeStream(t, []*workload.Job{goldenJob()})
	if !bytes.Equal(got, want) {
		t.Fatalf("frame layout changed (bump StreamVersion if deliberate):\n got % x\nwant % x", got, want)
	}
	s, err := NewStream(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Next()
	if err != nil || !reflect.DeepEqual(j, goldenJob()) {
		t.Fatalf("golden bytes decode to %+v, %v", j, err)
	}
}

// TestStreamRoundTripProperty: Append → Next is the identity on every
// job the generators build and on the corners of the field ranges. A
// phase without parents decodes to nil Parents, which is what every
// generator emits.
func TestStreamRoundTripProperty(t *testing.T) {
	jobs := DefaultGoogleLike(300, 2, 5).Generate()
	rng := stats.NewRNG(9)
	for i := 0; i < 20; i++ {
		id := workload.JobID(1000 + 4*i)
		jobs = append(jobs,
			WordCount(id, int64(i), 1+float64(i), rng),
			PageRank(id+1, int64(i), 1+float64(i), rng),
			TeraSort(id+2, int64(i), 1+float64(i), rng),
			MLIteration(id+3, int64(i), 1+float64(i), rng))
	}
	unit := workload.Phase{Name: "p", Tasks: 1, Demand: resources.Vec(1, 1), MeanDuration: 1}
	with := func(p workload.Phase, parents ...workload.PhaseID) workload.Phase {
		p.Parents = parents
		return p
	}
	wide := unit
	wide.Tasks, wide.Name = 400, ""
	tiny := unit
	tiny.MeanDuration, tiny.SDDuration = math.SmallestNonzeroFloat64, math.MaxFloat64
	jobs = append(jobs,
		goldenJob(),
		&workload.Job{ID: -3, Arrival: 1<<62 - 1, Phases: []workload.Phase{wide}},
		&workload.Job{ID: math.MaxInt32, Name: "diamond", Tenant: strings.Repeat("t", 64), Phases: []workload.Phase{
			unit, with(unit, 0), with(unit, 0), with(unit, 1, 2)}},
		&workload.Job{ID: 1, Arrival: -5, App: "ünïcode\x00", Phases: []workload.Phase{tiny}},
	)
	raw := encodeStream(t, jobs)
	s, err := NewStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range jobs {
		got, err := s.Next()
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d round-trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("clean end must be io.EOF, got %v", err)
	}
}

// nextCorrupt opens raw, expects frame 0 to fail with a *CorruptError
// that names it, and returns the error.
func nextCorrupt(t *testing.T, raw []byte) *CorruptError {
	t.Helper()
	s, err := NewStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Next()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want a *CorruptError, got job %+v, err %v", j, err)
	}
	if ce.Frame != 0 || ce.Offset != int64(streamHeaderLen) {
		t.Fatalf("corruption attributed to frame %d byte %d, want frame 0 byte %d", ce.Frame, ce.Offset, streamHeaderLen)
	}
	if s.Decoded() != 0 || s.Offset() != int64(streamHeaderLen) {
		t.Fatalf("a refused frame was counted: decoded %d, offset %d", s.Decoded(), s.Offset())
	}
	return ce
}

// hostilePayloads are bodies no writer produces. Each claims more than
// its bytes hold, or holds more than it claims.
func hostilePayloads() map[string][]byte {
	golden := appendJob(nil, goldenJob())
	huge := binary.AppendUvarint(nil, 1<<60)
	pad := make([]byte, 64)
	// ID 0, then empty Name and App, Arrival 0, empty Tenant.
	head := []byte{0, 0, 0, 0, 0}
	phase := []byte{0, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return map[string][]byte{
		"trailing byte":        join(golden, []byte{0}),
		"string length 1<<60":  join([]byte{0}, huge, pad),
		"phase count 1<<60":    join(head, huge, pad),
		"phase count 1<<20":    join(head, binary.AppendUvarint(nil, 1<<20), pad),
		"parent count 1<<60":   join(head, []byte{1}, phase, huge, pad),
		"parent count 1<<20":   join(head, []byte{1}, phase, binary.AppendUvarint(nil, 1<<20), pad),
		"varint past 64 bits":  join(bytes.Repeat([]byte{0x80}, 10), []byte{1}, pad),
		"varint not shortest":  join([]byte{0x80, 0}, golden[1:]),
		"count past remainder": join(head, []byte{4}, pad),
	}
}

// TestStreamHostilePayloads: behind a correct checksum, the decoder
// still refuses every malformed body with the frame's position, without
// panicking and without allocating what a count asked for.
func TestStreamHostilePayloads(t *testing.T) {
	golden := appendJob(nil, goldenJob())
	for cut := 0; cut < len(golden); cut++ {
		ce := nextCorrupt(t, framed(golden[:cut]))
		if ce.Reason != "frame payload is not a job" {
			t.Fatalf("payload cut at %d: %v", cut, ce)
		}
	}
payloads:
	for name, payload := range hostilePayloads() {
		ce := nextCorrupt(t, framed(payload))
		if ce.Reason != "frame payload is not a job" || ce.Err == nil {
			t.Errorf("%s: %v", name, ce)
		}
		// TotalAlloc is process-wide, so one window also counts what the
		// runtime allocated meanwhile. A decoder that allocates what a
		// count asked for does so in every window; take the smallest.
		var before, after runtime.MemStats
		grew := uint64(math.MaxUint64)
		for range 5 {
			var dec decoder // fresh: its label table and scratch count too
			runtime.ReadMemStats(&before)
			_, err := dec.job(payload)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: decoded", name)
				continue payloads
			}
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > 4096 {
			t.Errorf("%s: decoder allocated %d bytes for a %d-byte payload", name, grew, len(payload))
		}
	}
}

// TestStreamRejectsNonFiniteDuration: a binary frame can spell what
// JSON could not. A NaN behind a correct checksum is an invalid job,
// never a yielded one.
func TestStreamRejectsNonFiniteDuration(t *testing.T) {
	for _, mutate := range []func(*workload.Phase){
		func(p *workload.Phase) { p.SDDuration = math.NaN() },
		func(p *workload.Phase) { p.SDDuration = math.Inf(1) },
		func(p *workload.Phase) { p.MeanDuration = math.Inf(1) },
		func(p *workload.Phase) { p.MeanDuration = math.NaN() },
	} {
		j := goldenJob()
		mutate(&j.Phases[1])
		if ce := nextCorrupt(t, framed(appendJob(nil, j))); ce.Reason != "invalid job" {
			t.Fatalf("non-finite duration: %v", ce)
		}
	}
}

// TestStreamRefusesVersion1 pins the remedy in the error: there is no
// reader for the JSON-payload format, only a faster way to get the
// trace back.
func TestStreamRefusesVersion1(t *testing.T) {
	v1 := append(append([]byte(nil), streamMagic[:]...), 1, 0, 0, 0)
	v1 = append(v1, `....{"ID":1}`...)
	_, err := NewStream(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("version-1 stream: %v", err)
	}
}
