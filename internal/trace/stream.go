package trace

// The streamed trace format: the on-disk shape of multi-million-job
// arrival processes. The JSON envelope format (serialize.go) holds the
// whole job list in one document, so both writing and reading it
// materialize every job — fine for a 6000-job experiment, fatal for the
// Google-trace-scale replays (25M jobs would be tens of gigabytes of
// heap). A streamed trace is instead a sequence of self-verifying
// frames, one job each, so a generator can emit jobs as it draws them
// and a replayer can decode exactly one job ahead of the engine.
//
// # File format
//
//	header: magic "dollytrc" (8 bytes) + uint32 LE format version (2)
//	frame:  uint32 LE payload length + uint32 LE CRC32-IEEE(payload)
//	        + payload (one binary workload.Job)
//
// The payload is the job's fields in declaration order. This comment
// is the format's only specification, and TestStreamGoldenFrame pins
// it byte for byte: changing the layout means bumping StreamVersion.
//
//	job:    varint  ID
//	        string  Name
//	        string  App
//	        varint  Arrival
//	        string  Tenant
//	        uvarint phase count, then that many phases
//	phase:  string  Name
//	        varint  Tasks
//	        varint  Demand.CPUMilli
//	        varint  Demand.MemMiB
//	        float64 MeanDuration
//	        float64 SDDuration
//	        uvarint parent count, then that many varint phase indices
//
// varint and uvarint are encoding/binary's (zig-zag for the signed
// one), in their shortest form only; string is a uvarint byte count
// followed by the bytes; float64 is the 8 IEEE-754 bytes, little-endian,
// so durations round-trip bit for bit. A phase without parents decodes
// to nil Parents, never an empty slice. The payload ends with the last
// phase: bytes after it are corruption, and so is a count or length
// that the bytes remaining in the payload cannot hold.
//
// The JSON envelope stays the human-readable interchange format (and
// the service's POST body); dollymp-trace -compact turns one into a
// stream. Version 1 carried a compact-JSON job in the same frame; no
// reader for it remains, because a trace is a pure function of its
// generator flags and regenerating is faster than decoding it was.
//
// The framing mirrors the journal's record format (internal/journal):
// the CRC makes every frame self-verifying, so truncation or corruption
// is detected positionally and reported as a *CorruptError naming the
// byte offset of the bad frame. Unlike the journal, a torn tail is an
// error here, not an expected crash artifact: a trace is written once
// and replayed many times, so a short file means the generation step
// was interrupted and the trace must be regenerated (or compacted down
// to its intact prefix with dollymp-trace -compact).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"dollymp/internal/workload"
)

// Stream format constants.
const (
	// StreamVersion is the streamed-trace format version.
	StreamVersion = 2
	// MaxFrameBytes bounds one frame's payload; a length prefix beyond
	// it is corruption, not an allocation request.
	MaxFrameBytes = 16 << 20
)

var streamMagic = [8]byte{'d', 'o', 'l', 'l', 'y', 't', 'r', 'c'}

// streamHeaderLen is the fixed header size in bytes; frameHeaderLen is
// a frame's length + CRC prefix.
const (
	streamHeaderLen = len(streamMagic) + 4
	frameHeaderLen  = 8
)

// IsStream sniffs whether b (the first bytes of a file) is a streamed
// trace. It needs at least len(streamMagic) bytes to say yes.
func IsStream(b []byte) bool {
	if len(b) < len(streamMagic) {
		return false
	}
	for i, c := range streamMagic {
		if b[i] != c {
			return false
		}
	}
	return true
}

// StreamWriter appends jobs to a streamed trace one frame at a time.
// Writes are buffered; call Flush (or Close on a FileStreamWriter)
// before handing the underlying file to a reader.
type StreamWriter struct {
	bw    *bufio.Writer
	count int64
	buf   []byte // frame scratch, reused: length + CRC + payload
}

// NewStreamWriter writes the stream header and returns a writer.
func NewStreamWriter(w io.Writer) (*StreamWriter, error) {
	sw := &StreamWriter{bw: bufio.NewWriterSize(w, 1<<20)}
	if _, err := sw.bw.Write(streamMagic[:]); err != nil {
		return nil, fmt.Errorf("trace: write stream header: %w", err)
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], StreamVersion)
	if _, err := sw.bw.Write(v[:]); err != nil {
		return nil, fmt.Errorf("trace: write stream header: %w", err)
	}
	return sw, nil
}

// Append validates and writes one job as a frame.
func (w *StreamWriter) Append(j *workload.Job) error {
	if err := j.Validate(); err != nil {
		return fmt.Errorf("trace: append: %w", err)
	}
	var hdr [frameHeaderLen]byte
	w.buf = appendJob(append(w.buf[:0], hdr[:]...), j)
	payload := w.buf[frameHeaderLen:]
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("trace: append: job %d encodes to %d bytes (frame cap %d)", j.ID, len(payload), MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(w.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(w.buf); err != nil {
		return fmt.Errorf("trace: append: %w", err)
	}
	w.count++
	return nil
}

// Count returns the number of jobs appended so far.
func (w *StreamWriter) Count() int64 { return w.count }

// Flush drains the write buffer to the underlying writer.
func (w *StreamWriter) Flush() error { return w.bw.Flush() }

// CorruptError reports a streamed or envelope trace that stops making
// sense partway through — a torn frame, a checksum mismatch, or a
// truncated JSON document — with the byte offset where decoding failed,
// mirroring the journal's positional torn-tail reporting. Unlike a
// journal, a trace is never legitimately torn, so callers should treat
// this as "regenerate (or -compact) the file", not "truncate and carry
// on".
type CorruptError struct {
	// Offset is the byte offset at which the bad frame or truncated
	// document starts (for framed traces, the frame's header offset).
	Offset int64
	// Frame is the index of the bad frame (0-based); -1 for envelope
	// (JSON) traces, which have no frames.
	Frame int64
	// Reason says what failed to verify.
	Reason string
	// Err is the underlying decode error, if any.
	Err error
}

func (e *CorruptError) Error() string {
	where := fmt.Sprintf("byte %d", e.Offset)
	if e.Frame >= 0 {
		where = fmt.Sprintf("frame %d (byte %d)", e.Frame, e.Offset)
	}
	if e.Err != nil {
		return fmt.Sprintf("trace: corrupt at %s: %s: %v", where, e.Reason, e.Err)
	}
	return fmt.Sprintf("trace: corrupt at %s: %s", where, e.Reason)
}

// Unwrap exposes the underlying decode error to errors.Is/As.
func (e *CorruptError) Unwrap() error { return e.Err }

// Stream decodes a streamed trace one job at a time. Next returns
// io.EOF at a clean end of stream and *CorruptError on a torn or
// corrupt frame; it never materializes more than one job.
type Stream struct {
	br  *bufio.Reader
	off int64 // bytes consumed so far
	n   int64 // frames decoded so far
	// hdr and buf receive a frame's header and payload. hdr is a field
	// so that handing it to io.ReadFull does not allocate it per frame.
	hdr [frameHeaderLen]byte
	buf []byte
	dec decoder
	err error // sticky
}

// NewStream checks the stream header and returns a reader.
func NewStream(r io.Reader) (*Stream, error) {
	s := &Stream{br: bufio.NewReaderSize(r, 1<<20)}
	var hdr [streamHeaderLen]byte
	if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
		return nil, &CorruptError{Offset: 0, Frame: -1, Reason: "short stream header", Err: err}
	}
	if !IsStream(hdr[:]) {
		return nil, fmt.Errorf("trace: not a streamed trace (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(hdr[len(streamMagic):]); v != StreamVersion {
		return nil, fmt.Errorf("trace: unsupported stream version %d (want %d): regenerate the trace with dollymp-trace -format stream", v, StreamVersion)
	}
	s.off = int64(streamHeaderLen)
	return s, nil
}

// Next decodes and validates the next job. It returns io.EOF when the
// stream ends cleanly on a frame boundary, and a *CorruptError naming
// the byte offset on a torn or corrupt frame. Errors are sticky.
func (s *Stream) Next() (*workload.Job, error) {
	if s.err != nil {
		return nil, s.err
	}
	j, err := s.next()
	if err != nil {
		s.err = err
		return nil, err
	}
	return j, nil
}

func (s *Stream) next() (*workload.Job, error) {
	frameOff := s.off
	hdr := s.hdr[:]
	n, err := io.ReadFull(s.br, hdr)
	if err == io.EOF && n == 0 {
		return nil, io.EOF // clean end on a frame boundary
	}
	if err != nil {
		return nil, &CorruptError{Offset: frameOff, Frame: s.n, Reason: "torn frame header", Err: err}
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > MaxFrameBytes {
		return nil, &CorruptError{Offset: frameOff, Frame: s.n,
			Reason: fmt.Sprintf("frame length %d exceeds cap %d", length, MaxFrameBytes)}
	}
	if cap(s.buf) < int(length) {
		s.buf = make([]byte, length)
	}
	payload := s.buf[:length]
	if _, err := io.ReadFull(s.br, payload); err != nil {
		return nil, &CorruptError{Offset: frameOff, Frame: s.n, Reason: "torn frame payload", Err: err}
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, &CorruptError{Offset: frameOff, Frame: s.n,
			Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", sum, got)}
	}
	j, err := s.dec.job(payload)
	if err != nil {
		return nil, &CorruptError{Offset: frameOff, Frame: s.n, Reason: "frame payload is not a job", Err: err}
	}
	if err := j.Validate(); err != nil {
		return nil, &CorruptError{Offset: frameOff, Frame: s.n, Reason: "invalid job", Err: err}
	}
	s.off += int64(frameHeaderLen + int(length))
	s.n++
	return j, nil
}

// appendJob appends j's frame payload (the layout in the file comment)
// to b.
func appendJob(b []byte, j *workload.Job) []byte {
	b = binary.AppendVarint(b, int64(j.ID))
	b = appendString(b, j.Name)
	b = appendString(b, j.App)
	b = binary.AppendVarint(b, j.Arrival)
	b = appendString(b, j.Tenant)
	b = binary.AppendUvarint(b, uint64(len(j.Phases)))
	for k := range j.Phases {
		p := &j.Phases[k]
		b = appendString(b, p.Name)
		b = binary.AppendVarint(b, int64(p.Tasks))
		b = binary.AppendVarint(b, p.Demand.CPUMilli)
		b = binary.AppendVarint(b, p.Demand.MemMiB)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.MeanDuration))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.SDDuration))
		b = binary.AppendUvarint(b, uint64(len(p.Parents)))
		for _, par := range p.Parents {
			b = binary.AppendVarint(b, int64(par))
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// minPhaseBytes is the shortest phase encoding: an empty name, three
// one-byte varints, two float64s and a zero parent count. It bounds a
// claimed phase count by the bytes that could hold it.
const minPhaseBytes = 1 + 3 + 16 + 1

// Payload decode errors; Stream.next wraps them in a *CorruptError.
var (
	errPayloadShort    = errors.New("payload ends inside a field")
	errPayloadVarint   = errors.New("varint overflows 64 bits or is not in its shortest form")
	errPayloadCount    = errors.New("count or length exceeds the bytes that remain")
	errPayloadRange    = errors.New("integer does not fit the platform's int")
	errPayloadTrailing = errors.New("bytes left over after the last phase")
)

// Label interning bounds: a stream's labels (App, phase names, Tenant)
// repeat from job to job, so the decoder keeps up to maxLabels of them,
// each at most maxLabelBytes long, and hands out the kept string
// instead of a new copy.
const (
	maxLabels     = 64
	maxLabelBytes = 64
)

// decoder is appendJob's inverse, kept across a stream's frames: it
// interns the labels and reuses one scratch list of parent indices.
type decoder struct {
	labels  map[string]string
	parents []workload.PhaseID
}

// label returns b as a string, the interned copy when there is one. The
// lookup by string(b) allocates nothing.
func (dec *decoder) label(b []byte) string {
	if s, ok := dec.labels[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(b) <= maxLabelBytes && len(dec.labels) < maxLabels {
		if dec.labels == nil {
			dec.labels = make(map[string]string)
		}
		dec.labels[s] = s
	}
	return s
}

// job decodes one whole payload. It allocates nothing a count asked for
// until the count has been checked against the bytes that remain. Every
// phase's Parents is cut from one array per job, by three-index slices.
func (dec *decoder) job(payload []byte) (*workload.Job, error) {
	d := payloadReader{b: payload}
	j := &workload.Job{}
	j.ID = workload.JobID(d.int())
	j.Name = string(d.bytes())
	j.App = dec.label(d.bytes())
	j.Arrival = d.varint()
	j.Tenant = dec.label(d.bytes())
	j.Phases = make([]workload.Phase, d.count(minPhaseBytes))
	dec.parents = dec.parents[:0]
	for k := range j.Phases {
		p := &j.Phases[k]
		p.Name = dec.label(d.bytes())
		p.Tasks = d.int()
		p.Demand.CPUMilli = d.varint()
		p.Demand.MemMiB = d.varint()
		p.MeanDuration = d.f64()
		p.SDDuration = d.f64()
		n := d.count(1)
		for i := 0; i < n; i++ {
			dec.parents = append(dec.parents, workload.PhaseID(d.int()))
		}
		// A placeholder of the right length: cut from the job's own
		// array below, once every phase's count is known.
		p.Parents = dec.parents[len(dec.parents)-n:]
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = errPayloadTrailing
	}
	if d.err != nil {
		return nil, d.err
	}
	all := append([]workload.PhaseID(nil), dec.parents...)
	for k := range j.Phases {
		p := &j.Phases[k]
		if n := len(p.Parents); n > 0 {
			p.Parents, all = all[:n:n], all[n:]
		} else {
			p.Parents = nil
		}
	}
	return j, nil
}

// payloadReader consumes a frame payload front to back. The first
// failure sticks and empties b, so every later read returns zero and
// the loops over counted items end at once.
type payloadReader struct {
	b   []byte
	err error
}

func (d *payloadReader) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.fail(errPayloadShort)
		return 0
	case n < 0 || (n > 1 && d.b[n-1] == 0):
		d.fail(errPayloadVarint)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *payloadReader) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *payloadReader) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail(errPayloadRange)
		return 0
	}
	return int(v)
}

// count reads how many items of at least minBytes each follow.
func (d *payloadReader) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.fail(errPayloadCount)
		return 0
	}
	return int(n)
}

// bytes reads a string's bytes; they alias the payload.
func (d *payloadReader) bytes() []byte {
	n := d.count(1)
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b
}

func (d *payloadReader) f64() float64 {
	if len(d.b) < 8 {
		d.fail(errPayloadShort)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Offset returns the byte offset of the next unread frame.
func (s *Stream) Offset() int64 { return s.off }

// Decoded returns the number of frames decoded so far.
func (s *Stream) Decoded() int64 { return s.n }

// FileStream is a Stream over an opened file.
type FileStream struct {
	*Stream
	f *os.File
}

// OpenStream opens a streamed trace file for reading.
func OpenStream(path string) (*FileStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := NewStream(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &FileStream{Stream: s, f: f}, nil
}

// Close closes the underlying file.
func (fs *FileStream) Close() error { return fs.f.Close() }

// FileStreamWriter is a StreamWriter over a created file.
type FileStreamWriter struct {
	*StreamWriter
	f *os.File
}

// CreateStream creates (truncating) a streamed trace file for writing.
func CreateStream(path string) (*FileStreamWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewStreamWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileStreamWriter{StreamWriter: w, f: f}, nil
}

// Close flushes buffered frames and closes the file.
func (fw *FileStreamWriter) Close() error {
	if err := fw.Flush(); err != nil {
		fw.f.Close()
		return err
	}
	return fw.f.Close()
}
