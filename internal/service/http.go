package service

// The HTTP surface of the daemon: stdlib net/http only, Go 1.22 pattern
// routing. The whole /v1 surface lives in one route table (Routes) and
// is served over the API interface, so the same handlers mount on a
// single Service or on the sharded router without change. Request
// bodies are strict — unknown fields and trailing JSON are 400s, a full
// admission queue is a 429 — and every error response is the uniform
// envelope {"error":{"code","message"}} so clients branch on machine-
// readable codes, not status text.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// MaxBodyBytes bounds a /v1/jobs request body (a trace file with many
// jobs fits comfortably; a runaway upload does not).
const MaxBodyBytes = 16 << 20

// Error codes carried in the error envelope. Clients must treat unknown
// codes as non-retryable; CodeQueueFull, CodeAdmissionDenied, and
// CodeUnavailable are the only retryable codes.
const (
	CodeInvalidArgument  = "invalid_argument"
	CodeNotFound         = "not_found"
	CodeQueueFull        = "queue_full"
	CodeDraining         = "draining"
	CodeInternal         = "internal"
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeAdmissionDenied: the edge admission policy refused the job
	// before it reached the queue (429, with Retry-After and a
	// machine-readable reason). Retryable — the deny is about NOW, not
	// about the job.
	CodeAdmissionDenied = "admission_denied"
	// CodeNotReady: the daemon is up but not yet serving (journal
	// replay in progress, scheduling loops not started) — /readyz only.
	CodeNotReady = "not_ready"
	// CodeUnavailable: a federation gateway could not reach the member
	// that owns the request (502). Retryable — the gateway re-routes
	// around dead members and a takeover re-homes their shards.
	CodeUnavailable = "unavailable"
	// CodeConflict: the request lost to a concurrent owner — e.g. an
	// adoption attempt against a journal segment still leased by a
	// live writer (409).
	CodeConflict = "conflict"
	// CodeGone: the job ID was issued, but its record is no longer held
	// (410) — a service keeps the records of its newest completed jobs
	// only. Every job's JCT is in dollymp_job_completion_slots.
	CodeGone = "gone"
)

// APIError is the machine-readable error payload inside the envelope.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Reason refines a 429: the admission policy's denial reason
	// (admission.Reason*). Empty on every other error, and on
	// queue_full — backpressure needs no refinement.
	Reason string `json:"reason,omitempty"`
	// RetryAfterMS is the server's retry hint in milliseconds — the
	// precise form of the Retry-After header, whose integer-seconds
	// granularity is too coarse for sub-second backoff. 0 means no
	// hint.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorResponse is the uniform error envelope every non-2xx /v1
// response carries. IDs/Rejected are only set on a partially accepted
// batch submission (429 mid-trace).
type ErrorResponse struct {
	Error    APIError         `json:"error"`
	IDs      []workload.JobID `json:"ids,omitempty"`
	Rejected int              `json:"rejected,omitempty"`
}

// API is the lifecycle surface the HTTP layer serves. *Service
// implements it over one scheduling loop; shard.Router implements it
// over P loops. NewHandler mounts the same routes on either.
type API interface {
	// SubmitNowait enqueues one job with immediate backpressure
	// (ErrQueueFull → 429, ErrStopped → 503).
	SubmitNowait(j *workload.Job) (workload.JobID, error)
	// Job returns one job's lifecycle record. When ok is false the
	// record is Gone(id) for an ID that was issued but is no longer
	// held (410 gone), and the zero JobInfo otherwise (404).
	Job(id workload.JobID) (JobInfo, bool)
	// Jobs lists the held lifecycle records matching the filter,
	// sorted by ID: every unfinished job and the newest completed ones.
	Jobs(f JobFilter) []JobInfo
	// Counts returns aggregated job accounting.
	Counts() Counts
	// Snapshot returns the aggregated cluster/queue snapshot.
	Snapshot() ClusterSnapshot
	// Shards returns per-scheduling-loop status, one entry per shard.
	Shards() []ShardStatus
	// Admission returns the edge-admission policy view (/v1/admission).
	Admission() AdmissionStatus
	// Draining reports whether a drain has begun anywhere.
	Draining() bool
	// Ready reports whether the deployment is fully serving: journal
	// replay finished and every scheduling loop started, with no drain
	// begun and no terminal error. /readyz serves 503 until it is true.
	Ready() bool
	// Err returns the first terminal scheduling-loop error, if any.
	Err() error
	// WriteMetrics renders the Prometheus exposition.
	WriteMetrics(w io.Writer) error
}

// Compile-time check: the single-loop service is a complete API.
var _ API = (*Service)(nil)

// Route is one entry of the HTTP surface: method, Go 1.22 mux pattern,
// and handler. Routes declares the shared /v1 table; callers with
// endpoints of their own extend it through NewHandler's `extra ...Route`
// variadic rather than mounting a second mux, so every route — shared or
// extra — gets the same envelope 404/405 treatment. Today's extras: the
// federation member adds POST /v1/federation/adopt, and the gateway
// builds its own table (this one plus GET /v1/federation) directly via
// MuxFor.
type Route struct {
	Method  string
	Pattern string
	Handler http.HandlerFunc
}

// Routes returns the API's route table:
//
//	POST /v1/jobs      submit one job, or a v1 trace file of jobs
//	GET  /v1/jobs      list held jobs (?state=, ?tenant=, ?limit=, ?offset=)
//	GET  /v1/jobs/{id} one job's lifecycle record (410 once no longer held)
//	GET  /v1/shards    per-shard queue/clock/accounting status
//	GET  /v1/cluster   aggregated cluster + queue snapshot
//	GET  /v1/status    alias of /v1/cluster (federated by the gateway)
//	GET  /v1/admission edge-admission policy and decision accounting
//	GET  /healthz      liveness (503 once draining or failed)
//	GET  /readyz       readiness (503 until replay done and loops up)
//	GET  /metrics      Prometheus text exposition
func Routes(api API) []Route {
	h := handler{api}
	return []Route{
		{"POST", "/v1/jobs", h.submit},
		{"GET", "/v1/jobs", h.listJobs},
		{"GET", "/v1/jobs/{id}", h.job},
		{"GET", "/v1/shards", h.shards},
		{"GET", "/v1/cluster", h.cluster},
		{"GET", "/v1/status", h.cluster},
		{"GET", "/v1/admission", h.admission},
		{"GET", "/healthz", h.health},
		{"GET", "/readyz", h.ready},
		{"GET", "/metrics", h.metrics},
	}
}

// NewHandler builds the HTTP handler for any API implementation from
// the route table (plus any extra routes — the federation member mounts
// its adoption endpoint this way), with an envelope-shaped 404 for
// unknown paths and an envelope-shaped 405 (with an Allow header) for
// known paths hit with the wrong method.
func NewHandler(api API, extra ...Route) http.Handler {
	return MuxFor(append(Routes(api), extra...))
}

// MuxFor builds a mux from an explicit route table with the uniform
// error treatment: envelope 404 on unknown paths, envelope 405 with an
// Allow header when a known path is hit with an unregistered method.
// The federation gateway serves its own route table through it so both
// sides of the deployment fail identically.
func MuxFor(routes []Route) http.Handler {
	mux := http.NewServeMux()
	byPath := make(map[string][]string)
	var paths []string
	for _, r := range routes {
		mux.HandleFunc(r.Method+" "+r.Pattern, r.Handler)
		if _, seen := byPath[r.Pattern]; !seen {
			paths = append(paths, r.Pattern)
		}
		byPath[r.Pattern] = append(byPath[r.Pattern], r.Method)
	}
	for _, pattern := range paths {
		// The method-less registration is only reachable by methods no
		// method-qualified pattern on the same path claims. Allow is
		// sorted so the header is deterministic regardless of route-table
		// order — clients and tests may compare it literally.
		methods := append([]string(nil), byPath[pattern]...)
		sort.Strings(methods)
		allow := strings.Join(methods, ", ")
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			WriteError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				fmt.Sprintf("method %s not allowed (allow: %s)", r.Method, allow))
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path))
	})
	return mux
}

// Handler returns this service's HTTP API (see Routes).
func (s *Service) Handler() http.Handler { return NewHandler(s) }

// The /v1 reply bodies beside the views (JobInfo, ClusterSnapshot,
// AdmissionStatus). The gateway and the client SDK reuse them, so a tag
// cannot drift between the sides.

// SubmitReply is the POST /v1/jobs success reply.
type SubmitReply struct {
	// IDs are the service-assigned job IDs, in submission order.
	IDs []workload.JobID `json:"ids"`
}

// JobPage is the GET /v1/jobs reply: one page of the lifecycle records
// the deployment holds — every unfinished job and, per service, the
// newest completed ones. Counts, not the listing, say how many jobs
// ever ran.
type JobPage struct {
	Jobs []JobInfo `json:"jobs"`
	// Total counts held jobs matching the filter before pagination.
	Total  int `json:"total"`
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
}

// ShardsReply is the GET /v1/shards reply.
type ShardsReply struct {
	Shards []ShardStatus `json:"shards"`
}

// DefaultJobsLimit and MaxJobsLimit bound GET /v1/jobs pagination.
const (
	DefaultJobsLimit = 100
	MaxJobsLimit     = 1000
)

// DefaultQueueFullRetry is the retry hint attached to queue-full 429s.
// A bounded queue under drain frees space in milliseconds, so the hint
// is small; the precise value rides in retry_after_ms while the
// Retry-After header rounds up to whole seconds.
const DefaultQueueFullRetry = 25 * time.Millisecond

// SetRetryAfter stamps the standard Retry-After header from a duration
// hint, rounding up to whole seconds (the header's granularity; the
// envelope's retry_after_ms carries the precise value). A zero or
// negative hint still writes "0" — the header's presence is the 429
// contract. Exported for the federation gateway's own 429s.
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(0)
	if d > 0 {
		secs = int64((d + time.Second - 1) / time.Second)
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// WriteJSON writes v as a JSON reply with the given status. Exported so
// the federation gateway and member encode their replies exactly as the
// service's handlers do.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the uniform error envelope. Exported so the
// federation gateway emits byte-identical envelopes for its own errors
// (502 unavailable, 409 conflict) without duplicating the shape.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: APIError{Code: code, Message: msg}})
}

// WriteSubmitError maps a failed submission to its envelope and writes
// it, with ids and rejected describing the partially accepted batch
// around it: queue-full and admission denials are retryable 429s
// carrying the retry hint (header and retry_after_ms), a drain is a
// 503, anything else is the job's own fault. Exported so the federation
// gateway's edge denials are byte-identical to a member's.
func WriteSubmitError(w http.ResponseWriter, err error, ids []workload.JobID, rejected int) {
	status, e := http.StatusBadRequest, APIError{Code: CodeInvalidArgument, Message: err.Error()}
	var denied *AdmissionError
	switch {
	case errors.Is(err, ErrQueueFull):
		status, e.Code = http.StatusTooManyRequests, CodeQueueFull
		e.RetryAfterMS = DefaultQueueFullRetry.Milliseconds()
		SetRetryAfter(w, DefaultQueueFullRetry)
	case errors.As(err, &denied):
		status, e.Code, e.Reason = http.StatusTooManyRequests, CodeAdmissionDenied, denied.Reason
		// Rounded up: a sub-millisecond hint truncated to 0 would read as
		// "no hint" and send the client to the whole-second header.
		e.RetryAfterMS = int64((denied.RetryAfter + time.Millisecond - 1) / time.Millisecond)
		SetRetryAfter(w, denied.RetryAfter)
	case errors.Is(err, ErrStopped):
		status, e.Code = http.StatusServiceUnavailable, CodeDraining
	}
	WriteJSON(w, status, ErrorResponse{Error: e, IDs: ids, Rejected: rejected})
}

type handler struct{ api API }

func (h handler) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Sprintf("read body: %v", err))
		return
	}
	jobs, err := trace.DecodeSubmission(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	ids := make([]workload.JobID, 0, len(jobs))
	for i, j := range jobs {
		id, err := h.api.SubmitNowait(j)
		if err != nil {
			WriteSubmitError(w, err, ids, len(jobs)-i)
			return
		}
		ids = append(ids, id)
	}
	WriteJSON(w, http.StatusAccepted, SubmitReply{IDs: ids})
}

func (h handler) listJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var f JobFilter
	if st := q.Get("state"); st != "" {
		if !ValidState(JobState(st)) {
			WriteError(w, http.StatusBadRequest, CodeInvalidArgument,
				fmt.Sprintf("unknown state %q (valid: queued, admitted, running, completed)", st))
			return
		}
		f.State = JobState(st)
	}
	f.Tenant = q.Get("tenant")
	limit, err := queryInt(q.Get("limit"), DefaultJobsLimit)
	if err != nil || limit < 1 {
		WriteError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Sprintf("bad limit %q", q.Get("limit")))
		return
	}
	if limit > MaxJobsLimit {
		limit = MaxJobsLimit
	}
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil || offset < 0 {
		WriteError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Sprintf("bad offset %q", q.Get("offset")))
		return
	}
	jobs := h.api.Jobs(f)
	total := len(jobs)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	WriteJSON(w, http.StatusOK, JobPage{
		Jobs: jobs[offset:end], Total: total, Offset: offset, Limit: limit,
	})
}

func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func (h handler) job(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil || id < 1 {
		WriteError(w, http.StatusBadRequest, CodeInvalidArgument, fmt.Sprintf("bad job id %q", r.PathValue("id")))
		return
	}
	info, ok := h.api.Job(workload.JobID(id))
	switch {
	case !ok && info.State == StateGone:
		WriteError(w, http.StatusGone, CodeGone, fmt.Sprintf("job %d is no longer held", id))
		return
	case !ok:
		WriteError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no job %d", id))
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (h handler) shards(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, ShardsReply{Shards: h.api.Shards()})
}

func (h handler) cluster(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, h.api.Snapshot())
}

func (h handler) admission(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, h.api.Admission())
}

func (h handler) health(w http.ResponseWriter, r *http.Request) {
	if err := h.api.Err(); err != nil {
		WriteError(w, http.StatusServiceUnavailable, CodeInternal, fmt.Sprintf("scheduling loop failed: %v", err))
		return
	}
	if h.api.Draining() {
		WriteError(w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h handler) ready(w http.ResponseWriter, r *http.Request) {
	if err := h.api.Err(); err != nil {
		WriteError(w, http.StatusServiceUnavailable, CodeInternal, fmt.Sprintf("scheduling loop failed: %v", err))
		return
	}
	if h.api.Draining() {
		WriteError(w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	if !h.api.Ready() {
		// Alive but not serving yet: journal replay or takeover absorption
		// still running, scheduling loops not started.
		WriteError(w, http.StatusServiceUnavailable, CodeNotReady, "not ready")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.api.WriteMetrics(w)
}
