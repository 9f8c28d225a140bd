// Package journal is the service's crash-safe intake log: an
// append-only write-ahead log of job lifecycle transitions, so a
// restarted daemon can rebuild every accepted-but-unfinished job
// instead of silently dropping it with the process's memory.
//
// # File format
//
// A journal file is a fixed 12-byte header followed by length-prefixed
// records:
//
//	header:  magic "dollyjnl" (8 bytes) + uint32 LE format version
//	record:  uint32 LE payload length + uint32 LE CRC32-IEEE(payload)
//	         + payload (one JSON-encoded Record)
//
// The CRC makes every record self-verifying, so a crash mid-write — a
// torn tail — is detected positionally: replay stops at the first
// record whose length, checksum, or JSON does not verify, and Open
// truncates the file back to the last intact record before appending.
// A torn tail is expected after a SIGKILL and is not an error — a
// header cut short of its 12 bytes included; only a bad header (wrong
// magic or version) fails a replay.
//
// # Durability model
//
// Appends go through an internal buffer, and a record is in one of two
// classes, decided by what its writer does next:
//
//   - Awaited: the writer calls Commit(seq) and does not proceed until
//     it returns. Commit flushes and fsyncs with group commit —
//     concurrent committers waiting on overlapping sequence ranges share
//     one fsync. The service awaits the records whose loss would lose a
//     job: `submitted` before a submission is acknowledged, and the
//     `injected`/`completed` records Restore and Absorb write before the
//     segment they were replayed from may be retired.
//   - Lazy: the writer appends and moves on (`admitted`, `completed`,
//     `stolen`, and a migration's `injected`). A lazy record rides
//     whichever awaited Commit comes next, and if none comes the journal
//     itself syncs it: every record is on disk within flushDelay (plus
//     one fsync) of its Append, enforced by a single timer armed on the
//     oldest record still in the buffer. When the timer fires and a
//     group commit has already taken that record, it issues no fsync and
//     re-arms for what is left, so under load the bound costs a timer
//     wake-up every few milliseconds and nothing else; on an idle daemon
//     it is the one fsync that puts the tail on disk.
//
// The replay window each class implies: an awaited record is never
// lost. A lazy record is lost only if the process dies within
// flushDelay of its Append, and losing one never loses a job — a lost
// `completed` re-runs a finished job after replay, a lost `admitted`
// is invisible (replay re-enqueues unfinished jobs either way), a lost
// `stolen` or `injected` is resolved by Merge below. At-least-once,
// never loss, for one fsync per acknowledged submission.
//
// A write or fsync error — from a Commit or from the lazy flush — is
// sticky: every later Append and Commit returns it, which fails the
// service at its next transition.
//
// # Replay semantics
//
// Records are replayed in file order into a per-job state machine:
// `submitted`/`injected` (both carry the full job spec) make a job
// live, `stolen` marks it migrated away, `completed` is terminal. A
// sharded deployment journals each shard to its own segment
// (SegmentPath), and Merge folds all segments' replays into one
// deduplicated set by job ID with completed > live > stolen precedence
// — so a crash between a victim's `stolen` record and the thief's
// `injected` record (or the reverse) still replays the job exactly
// once. What is intentionally not persisted: engine state and the
// virtual clock. A replayed unfinished job restarts from the admission
// queue of a fresh engine; its original arrival and any partial
// progress are gone by design.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dollymp/internal/workload"
)

// Format constants.
const (
	// FormatVersion is the on-disk format version in the file header.
	FormatVersion = 1
	// MaxRecordBytes bounds one record's payload; a length prefix
	// beyond it is treated as corruption (torn or overwritten tail),
	// not an allocation request.
	MaxRecordBytes = 16 << 20
)

// flushDelay bounds how long an appended record may sit in the buffer
// with no Commit covering it (see "Durability model"). It is the window
// in which a crash can lose a lazy record, and at the same time the
// idle daemon's only cost for not losing older ones; a few milliseconds
// is several fsyncs long and far below anything an operator would call
// "the job finished a while ago".
const flushDelay = 5 * time.Millisecond

var magic = [8]byte{'d', 'o', 'l', 'l', 'y', 'j', 'n', 'l'}

// ErrLeased is returned when a segment is still held by a live writer:
// Open refuses to take over an append lease another process owns, and
// AdoptSegment refuses to replay a segment whose owner has not actually
// died. The lease is an advisory flock on the segment file, so the
// kernel releases it the instant the owner exits — even by SIGKILL —
// and a retry after the owner's death succeeds.
var ErrLeased = errors.New("journal: segment leased by a live writer")

// LeaseSupported reports whether segment leases are real on this
// platform (flock) or advisory-by-convention stubs. Tests that prove
// lease refusal skip themselves where there is nothing to refuse with.
func LeaseSupported() bool { return flockSupported }

const headerLen = len(magic) + 4

// Op names a journaled lifecycle transition.
type Op string

// Journaled operations.
const (
	// OpSubmitted records intake: the job spec as accepted, written
	// durably before the submission is acknowledged.
	OpSubmitted Op = "submitted"
	// OpAdmitted records injection into the engine at Arrival.
	OpAdmitted Op = "admitted"
	// OpCompleted records a finished job with its stamped flowtime.
	OpCompleted Op = "completed"
	// OpStolen records a still-queued job migrated off this shard.
	OpStolen Op = "stolen"
	// OpInjected records a migrated (or replay-restored) job arriving
	// on this shard, full spec included so the segment replays alone.
	OpInjected Op = "injected"
)

// Record is one journaled lifecycle transition. Job is set on
// OpSubmitted and OpInjected — the ops that must be replayable without
// any other segment — and nil otherwise.
type Record struct {
	Op       Op             `json:"op"`
	ID       workload.JobID `json:"id"`
	Job      *workload.Job  `json:"job,omitempty"`
	Arrival  int64          `json:"arrival,omitempty"`
	Finish   int64          `json:"finish,omitempty"`
	Flowtime int64          `json:"flowtime,omitempty"`
}

// JobOutcome is a replayed job's final state in one segment (or, after
// Merge, across all segments).
type JobOutcome int

// Outcomes, in replay-precedence order (Merge keeps the highest).
const (
	// OutcomeStolen: the job's last record migrated it away. Alone it
	// means the crash hit between the steal and the inject — Merge
	// resurrects the job from the retained spec unless another segment
	// has it live or completed.
	OutcomeStolen JobOutcome = iota
	// OutcomePending: accepted (and possibly admitted) but unfinished;
	// replay must re-enqueue it.
	OutcomePending
	// OutcomeCompleted: finished with a stamped flowtime; replay must
	// not re-run it.
	OutcomeCompleted
)

// String renders the outcome for logs.
func (o JobOutcome) String() string {
	switch o {
	case OutcomeStolen:
		return "stolen"
	case OutcomePending:
		return "pending"
	case OutcomeCompleted:
		return "completed"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// ReplayJob is one job's reconstructed state.
type ReplayJob struct {
	ID      workload.JobID
	Outcome JobOutcome
	// Job is the full spec from the last submitted/injected record;
	// nil only for a completed job whose intake record lives in a
	// segment that no longer exists.
	Job *workload.Job
	// Admitted reports whether an admitted record was seen (the job
	// had reached the engine; informational — replay re-enqueues it
	// from the queue either way, the engine is single-use).
	Admitted bool
	// Finish and Flowtime carry the completed record's stamps.
	Finish, Flowtime int64
}

// Replay is the result of scanning one segment.
type Replay struct {
	// Records counts intact records scanned.
	Records int64
	// Truncated is the torn-tail byte count dropped (0 for a clean
	// file). Open physically truncates these bytes; ReplayFile only
	// reports them.
	Truncated int64
	// Jobs holds per-job final states in ascending ID order.
	Jobs []*ReplayJob
}

// Journal is an open, appendable segment. Safe for concurrent use.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	buf      []byte // appended but not yet flushed to the file
	appended uint64 // sequence of the last appended record
	flushed  uint64 // sequence of the last record a commit took out of buf
	durable  uint64 // sequence covered by the last fsync
	syncing  bool   // a group commit is in flight
	synced   *sync.Cond
	err      error // first terminal write/sync error; sticky
	closed   bool

	// The lazy flush: oldest is the Append instant of record flushed+1,
	// the oldest one still in buf, and flusher fires flushDelay after it
	// unless nothing is buffered. armed says flusher is pending or
	// running; Append arms it, lazyFlush re-arms or disarms it.
	oldest  time.Time
	flusher *time.Timer
	armed   bool

	stats Stats
}

// Stats is what the journal has cost the disk since Open.
type Stats struct {
	// Fsyncs counts fsyncs issued by commits and by the lazy flush.
	Fsyncs int64
	// FsyncTime is their summed duration.
	FsyncTime time.Duration
}

// Stats returns the fsync accounting.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Open opens (or creates) a journal segment for appending. An existing
// file is scanned first: its intact records come back as a Replay and a
// torn tail is truncated away — with a warning in Replay.Truncated, not
// an error — so the next append lands on a clean record boundary.
func Open(path string) (*Journal, *Replay, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	// Take the writer lease before reading a byte: two live processes
	// appending to one segment would interleave frames and corrupt the
	// log, so the second opener is refused while the first is alive.
	if err := lockExclusive(f.Fd()); err != nil {
		f.Close()
		if leaseHeld(err) {
			return nil, nil, fmt.Errorf("journal: open %s: %w", path, ErrLeased)
		}
		return nil, nil, fmt.Errorf("journal: lease %s: %w", path, err)
	}
	rep, good, err := scan(f, path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if rep.Truncated > 0 {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: sync %s after truncation: %w", path, err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	j := &Journal{f: f}
	j.synced = sync.NewCond(&j.mu)
	return j, rep, nil
}

// ReplayFile scans a segment read-only — used for leftover segments of
// a previous topology that the current process will not append to. The
// torn tail, if any, is reported but left on disk.
func ReplayFile(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	defer f.Close()
	rep, _, err := scan(f, path)
	return rep, err
}

// AdoptSegment replays a dead member's segment for takeover. It differs
// from ReplayFile in exactly one way: it first takes a shared lease on
// the file, which the kernel refuses while the owning process is still
// alive and holding the exclusive writer lease — so a federation can
// never replay (and re-run) the jobs of a member that is merely slow.
// A held lease returns an error wrapping ErrLeased; the caller retries
// after the owner actually dies. The torn tail, if any, is reported but
// left on disk — adoption never rewrites the dead member's file.
func AdoptSegment(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	defer f.Close()
	if err := lockShared(f.Fd()); err != nil {
		if leaseHeld(err) {
			return nil, fmt.Errorf("journal: adopt %s: %w", path, ErrLeased)
		}
		return nil, fmt.Errorf("journal: adopt %s: %w", path, err)
	}
	rep, _, err := scan(f, path)
	return rep, err
}

// scan reads the header and every intact record, returning the replay
// state and the offset of the first byte past the last intact record.
// A missing or empty file yields an empty replay, and so does a header
// torn short of its 12 bytes: a fresh segment's header reaches the disk
// in the same write as its first record, whose commit never returned,
// so the whole file is a torn tail. A present-but-bad header is an
// error (wrong file, not a torn one).
func scan(f *os.File, path string) (*Replay, int64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("journal: stat %s: %w", path, err)
	}
	rep := &Replay{}
	if st.Size() == 0 {
		// Fresh segment: the header is written with the first append.
		return rep, 0, nil
	}
	r := newStateMachine()
	hdr := make([]byte, min(st.Size(), int64(headerLen)))
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, 0, fmt.Errorf("journal: read header of %s: %w", path, err)
	}
	want := binary.LittleEndian.AppendUint32(magic[:], FormatVersion)
	if len(hdr) < headerLen && bytes.Equal(hdr, want[:len(hdr)]) {
		rep.Truncated = int64(len(hdr))
		return rep, 0, nil
	}
	if len(hdr) < headerLen || [8]byte(hdr[:8]) != magic {
		return nil, 0, fmt.Errorf("journal: %s is not a journal (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != FormatVersion {
		return nil, 0, fmt.Errorf("journal: %s has format version %d (want %d)", path, v, FormatVersion)
	}
	off := int64(headerLen)
	var frame [8]byte
	for off < st.Size() {
		if st.Size()-off < int64(len(frame)) {
			break // torn frame header
		}
		if _, err := f.ReadAt(frame[:], off); err != nil {
			return nil, 0, fmt.Errorf("journal: read %s at %d: %w", path, off, err)
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		sum := binary.LittleEndian.Uint32(frame[4:])
		if n == 0 || n > MaxRecordBytes || st.Size()-off-int64(len(frame)) < int64(n) {
			break // torn or corrupt length
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+int64(len(frame))); err != nil {
			return nil, 0, fmt.Errorf("journal: read %s at %d: %w", path, off, err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // torn or corrupt payload
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // checksummed garbage: treat as tail like any corruption
		}
		if err := r.apply(&rec); err != nil {
			return nil, 0, fmt.Errorf("journal: %s record %d: %w", path, rep.Records, err)
		}
		rep.Records++
		off += int64(len(frame)) + int64(n)
	}
	rep.Truncated = st.Size() - off
	rep.Jobs = r.jobs()
	return rep, off, nil
}

// stateMachine folds records into per-job final states.
type stateMachine struct {
	m map[workload.JobID]*ReplayJob
}

func newStateMachine() *stateMachine {
	return &stateMachine{m: make(map[workload.JobID]*ReplayJob)}
}

func (r *stateMachine) apply(rec *Record) error {
	if rec.ID < 1 {
		return fmt.Errorf("record %q has job id %d", rec.Op, rec.ID)
	}
	j := r.m[rec.ID]
	if j == nil {
		j = &ReplayJob{ID: rec.ID, Outcome: OutcomePending}
		r.m[rec.ID] = j
	}
	switch rec.Op {
	case OpSubmitted, OpInjected:
		if rec.Job == nil {
			return fmt.Errorf("%s record for job %d has no spec", rec.Op, rec.ID)
		}
		j.Job = rec.Job
		if j.Outcome != OutcomeCompleted {
			j.Outcome = OutcomePending
		}
	case OpAdmitted:
		j.Admitted = true
	case OpCompleted:
		j.Outcome = OutcomeCompleted
		j.Finish, j.Flowtime = rec.Finish, rec.Flowtime
	case OpStolen:
		if j.Outcome == OutcomePending {
			j.Outcome = OutcomeStolen
		}
	default:
		return fmt.Errorf("unknown op %q (version skew?)", rec.Op)
	}
	return nil
}

func (r *stateMachine) jobs() []*ReplayJob {
	out := make([]*ReplayJob, 0, len(r.m))
	for _, j := range r.m {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Merge folds several segments' replays into one deduplicated job set,
// in ascending ID order. Job IDs are globally unique across shards, so
// the same ID in two segments is the same job seen from two sides of a
// migration; precedence is completed > pending > stolen, which makes
// every crash point around a migration replay the job exactly once:
//
//   - stolen durable, injected lost  → victim says stolen, nobody says
//     live → the retained spec resurrects it (pending).
//   - stolen lost, injected durable  → pending on both → one copy.
//   - completed anywhere             → completed, never re-run.
func Merge(replays ...*Replay) []*ReplayJob {
	m := make(map[workload.JobID]*ReplayJob)
	for _, rep := range replays {
		if rep == nil {
			continue
		}
		for _, j := range rep.Jobs {
			prev := m[j.ID]
			if prev == nil {
				cp := *j
				m[j.ID] = &cp
				continue
			}
			if j.Outcome > prev.Outcome {
				prev.Outcome = j.Outcome
				prev.Finish, prev.Flowtime = j.Finish, j.Flowtime
			}
			if prev.Job == nil {
				prev.Job = j.Job
			}
			prev.Admitted = prev.Admitted || j.Admitted
		}
	}
	out := make([]*ReplayJob, 0, len(m))
	for _, j := range m {
		// A stolen-only job was mid-migration at the crash; no segment
		// has it live, so its retained spec is the only copy left.
		if j.Outcome == OutcomeStolen {
			j.Outcome = OutcomePending
		}
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Append buffers one record and returns its sequence number for
// Commit. The record is NOT durable — and after a crash possibly not
// even visible — until a Commit covering the sequence returns; a caller
// that does not await one gets the lazy bound instead: on disk within
// flushDelay plus one fsync.
func (j *Journal) Append(rec Record) (uint64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("journal: encode record: %w", err)
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("journal: record for job %d is %d bytes (max %d)", rec.ID, len(payload), MaxRecordBytes)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return 0, j.err
	}
	if j.closed {
		return 0, errors.New("journal: appended after Close")
	}
	if j.appended == 0 && len(j.buf) == 0 {
		// First append of this process: ensure the header exists. A
		// reopened segment already has one (scan verified it).
		if off, err := j.f.Seek(0, io.SeekCurrent); err != nil {
			j.err = fmt.Errorf("journal: seek: %w", err)
			return 0, j.err
		} else if off == 0 {
			var hdr [12]byte
			copy(hdr[:], magic[:])
			binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
			j.buf = append(j.buf, hdr[:]...)
		}
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	j.buf = append(j.buf, frame[:]...)
	j.buf = append(j.buf, payload...)
	if j.appended == j.flushed {
		j.oldest = time.Now()
	}
	j.appended++
	if !j.armed {
		j.armed = true
		if j.flusher == nil {
			j.flusher = time.AfterFunc(flushDelay, j.lazyFlush)
		} else {
			j.flusher.Reset(flushDelay)
		}
	}
	return j.appended, nil
}

// lazyFlush is the timer's function: it syncs the buffer once its
// oldest record has waited flushDelay, and otherwise only decides when
// to look again. Commits keep emptying the buffer under load, so the
// usual firing finds the record it was armed for already taken, issues
// no fsync, and re-arms for the oldest record appended since (or
// disarms on an empty buffer; the next Append arms it again). A sync
// error stays in j.err for the next Append to report.
func (j *Journal) lazyFlush() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.err == nil && !j.closed && j.appended > j.flushed {
		if wait := flushDelay - time.Since(j.oldest); wait > 0 {
			j.flusher.Reset(wait)
			return
		}
		_ = j.commitLocked(j.appended)
	}
	j.armed = false
}

// Commit makes every record up to and including seq durable, sharing
// one flush+fsync among concurrent committers (group commit).
func (j *Journal) Commit(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.commitLocked(seq)
}

// commitLocked is Commit with mu held; it releases mu around the disk.
func (j *Journal) commitLocked(seq uint64) error {
	if seq > j.appended {
		seq = j.appended // nothing beyond the last append can be awaited
	}
	for {
		if j.err != nil {
			return j.err
		}
		if j.durable >= seq {
			return nil
		}
		if j.syncing {
			// Another committer's fsync is in flight; it will cover our
			// records if they were appended before its flush, otherwise
			// we retry after it finishes.
			j.synced.Wait()
			continue
		}
		j.syncing = true
		target := j.appended
		buf := j.buf
		j.buf = nil
		j.flushed = target
		j.mu.Unlock()
		// Write and fsync outside the lock: appends keep flowing into a
		// fresh buffer while the disk works.
		var err error
		if len(buf) > 0 {
			_, err = j.f.Write(buf)
		}
		var fsyncs int64
		var took time.Duration
		if err == nil {
			start := time.Now()
			err = j.f.Sync()
			fsyncs, took = 1, time.Since(start)
		}
		j.mu.Lock()
		j.syncing = false
		j.stats.Fsyncs += fsyncs
		j.stats.FsyncTime += took
		if err != nil {
			j.err = fmt.Errorf("journal: commit: %w", err)
		} else if target > j.durable {
			j.durable = target
		}
		j.synced.Broadcast()
	}
}

// awaitSyncLocked waits out a write+fsync in flight — a committer's or
// the lazy flush's — so the descriptor, and the lease with it, is
// really released when Close or Crash returns: closing a file under a
// running fsync defers the close to that fsync's end. Callers have set
// closed, so no new sync starts. Caller holds mu.
func (j *Journal) awaitSyncLocked() {
	for j.syncing {
		j.synced.Wait()
	}
}

// Sync makes everything appended so far durable.
func (j *Journal) Sync() error {
	j.mu.Lock()
	seq := j.appended
	j.mu.Unlock()
	if seq == 0 {
		return nil
	}
	return j.Commit(seq)
}

// Crash simulates the owner dying: the file is closed immediately —
// releasing the lease, exactly as process death would — WITHOUT
// flushing the append buffer, so records still in it (appended within
// the last flushDelay and covered by no Commit) are lost the way a
// SIGKILL loses them, and the lazy flush never runs again. Further
// appends fail. Crash exists for tests and in-process failure
// injection; production code paths use Close.
func (j *Journal) Crash() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	j.buf = nil
	if j.err == nil {
		j.err = errors.New("journal: crashed")
	}
	j.awaitSyncLocked()
	err := j.f.Close()
	j.synced.Broadcast()
	return err
}

// Close flushes, fsyncs, and closes the file. Further appends fail.
func (j *Journal) Close() error {
	err := j.Sync()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return err
	}
	j.closed = true
	j.awaitSyncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SegmentPath names shard k's segment inside a journal directory.
func SegmentPath(dir string, k int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", k))
}

// ListSegments returns every *.wal file in dir, sorted by name. A
// missing directory is an empty listing, not an error.
func ListSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: list %s: %w", dir, err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".wal" {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}
