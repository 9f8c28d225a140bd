package main

// Spans and the decorators that record them. Every layer is timed from
// outside, around calls into its public functions: the benchmark owns
// these wrappers and the program under test is not modified. A traced
// repetition installs them; an untraced one runs the bare objects, so
// the end-to-end metrics never pay for a timer.

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dollymp/internal/sched"
	"dollymp/internal/service"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

// span is one timed call. Times are nanoseconds since the recorder was
// created; Parent is the ID of the span that caused this one (0 = the
// repetition itself). Spans of one client request share Req.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    string `json:"req,omitempty"`
	// N is the work the call did: placements returned by a Schedule
	// call; zero where a call has no count.
	N int `json:"n,omitempty"`
}

// layerStat totals every call recorded under one span name.
type layerStat struct {
	calls int64
	ns    int64
	n     int64
	empty int64 // calls that did no work (N == 0)
	// durs holds exact durations when spans are kept; hist takes over
	// (quantiles exact to a factor of 2) on call sites too hot to keep.
	durs []float64
	hist stats.LogHist
}

func (s *layerStat) seconds() float64 { return float64(s.ns) / 1e9 }

// quantile returns the q-quantile call duration in nanoseconds.
func (s *layerStat) quantile(q float64) float64 {
	if len(s.durs) == 0 {
		return float64(s.hist.Quantile(q))
	}
	return quantileOf(s.durs, q)
}

// quantileOf returns the nearest-rank q-quantile of vals, 0 if empty.
func quantileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return stats.NewECDF(vals).Quantile(q)
}

// recorder collects spans and per-name totals for one repetition. Safe
// for concurrent use: the daemon workload records from connection,
// handler and shard goroutines at once.
type recorder struct {
	t0 time.Time
	// perCall keeps a span per Step/Schedule call; off on workloads with
	// more than 1e5 such calls, which record totals only.
	perCall bool

	nextID atomic.Int32

	mu    sync.Mutex
	spans []span
	stats map[string]*layerStat
	// step is the engine Step span in progress; Schedule calls made
	// inside it name it as their parent. Engine workloads are
	// single-goroutine, so a plain field suffices.
	step int32
	// inflight maps a request ID to its open HTTP handler span, so the
	// API decorator beneath the handler can name its parent.
	inflight sync.Map
}

func newRecorder(perCall bool) *recorder {
	return &recorder{t0: time.Now(), perCall: perCall, stats: make(map[string]*layerStat)}
}

// begin reserves a span ID so children can name their parent before the
// span itself ends.
func (r *recorder) begin() int32 { return r.nextID.Add(1) }

// end records one finished call. With keep it is stored as a span;
// otherwise only the totals move.
func (r *recorder) end(id, parent int32, name string, start, stop time.Time, n int, req string, keep bool) {
	d := stop.Sub(start).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats[name]
	if st == nil {
		st = &layerStat{}
		r.stats[name] = st
	}
	st.calls++
	st.ns += d
	st.n += int64(n)
	if n == 0 {
		st.empty++
	}
	if !keep {
		st.hist.Observe(d)
		return
	}
	st.durs = append(st.durs, float64(d))
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: stop.Sub(r.t0).Nanoseconds(),
		Req: req, N: n,
	})
}

// time runs fn as a top-level call recorded by totals only.
func (r *recorder) time(name string, fn func()) {
	start := time.Now()
	fn()
	r.end(0, 0, name, start, time.Now(), 1, "", false)
}

// stat returns the totals for name (zero if nothing was recorded).
func (r *recorder) stat(name string) *layerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.stats[name]; st != nil {
		return st
	}
	return &layerStat{}
}

// calls returns how many calls the recorder timed.
func (r *recorder) calls() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, st := range r.stats {
		n += st.calls
	}
	return float64(n)
}

// recordedCallCost measures, in seconds, what timing one call costs: two
// clock reads and the recorder's bookkeeping round an empty function.
// Multiplied by the calls a traced repetition recorded it gives the
// decorators' cost without comparing two noisy walls.
func recordedCallCost() float64 {
	const n = 200_000
	probe := newRecorder(false)
	start := time.Now()
	for i := 0; i < n; i++ {
		probe.time("probe", func() {})
	}
	return time.Since(start).Seconds() / n
}

// traceFile is the on-disk form of one traced repetition.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Totals lists every span name with its call count and busy time,
	// including the call sites whose spans were not kept.
	Totals map[string]traceTotal `json:"totals"`
	Spans  []span                `json:"spans"`
}

type traceTotal struct {
	Calls   int64   `json:"calls"`
	Seconds float64 `json:"seconds"`
	Kept    bool    `json:"spans_kept"`
}

func (r *recorder) write(path, workload string, seed uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, Totals: make(map[string]traceTotal), Spans: r.spans}
	for name, st := range r.stats {
		tf.Totals[name] = traceTotal{Calls: st.calls, Seconds: st.seconds(), Kept: len(st.durs) > 0}
	}
	b, err := json.Marshal(&tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedScheduler times Schedule and forwards OnJobArrival, which the
// engine discovers by type assertion: a wrapper that hid it would
// silently change the schedule. The traced run reproducing the untraced
// sim.* values exactly is the proof it does not.
type tracedScheduler struct {
	inner   sched.Scheduler
	arrival sched.ArrivalAware
	rec     *recorder
	// keep stores a span per Schedule call.
	keep bool
}

// wrapScheduler decorates s. The result implements sched.ArrivalAware
// only if s does.
func (r *recorder) wrapScheduler(s sched.Scheduler, keep bool) sched.Scheduler {
	t := &tracedScheduler{inner: s, rec: r, keep: keep}
	if aa, ok := s.(sched.ArrivalAware); ok {
		t.arrival = aa
		return arrivalAwareScheduler{t}
	}
	return t
}

func (t *tracedScheduler) Name() string { return t.inner.Name() }

func (t *tracedScheduler) Schedule(ctx sched.Context) []sched.Placement {
	var id int32
	if t.keep {
		id = t.rec.begin()
	}
	start := time.Now()
	p := t.inner.Schedule(ctx)
	t.rec.end(id, t.rec.step, "core.schedule", start, time.Now(), len(p), "", t.keep)
	return p
}

type arrivalAwareScheduler struct{ *tracedScheduler }

func (t arrivalAwareScheduler) OnJobArrival(ctx sched.Context, js *workload.JobState) {
	start := time.Now()
	t.arrival.OnJobArrival(ctx, js)
	t.rec.end(0, t.rec.step, "core.on_arrival", start, time.Now(), 1, "", false)
}

// Request identity travels from the load generator to the handler in
// two headers, and from the context to the headers in the transport.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

type reqKey struct{}

// reqInfo is what a client call puts in its context.
type reqInfo struct {
	span int32
	req  string
}

// tracedTransport copies the caller's span and request ID from the
// request context into headers, so the server side can link to them.
type tracedTransport struct{ base http.RoundTripper }

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ri, ok := req.Context().Value(reqKey{}).(reqInfo); ok {
		req = req.Clone(req.Context())
		req.Header.Set(hdrSpan, strconv.Itoa(int(ri.span)))
		req.Header.Set(hdrReq, ri.req)
	}
	return t.base.RoundTrip(req)
}

// clientCall records fn as a client-side span and hands it a context
// that carries the span to the transport.
func (r *recorder) clientCall(ctx context.Context, name, req string, fn func(context.Context)) {
	id := r.begin()
	start := time.Now()
	fn(context.WithValue(ctx, reqKey{}, reqInfo{span: id, req: req}))
	r.end(id, 0, name, start, time.Now(), 1, req, true)
}

// middleware times every HTTP request by route.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		name := "service.http_other"
		switch {
		case q.Method == http.MethodPost && q.URL.Path == "/v1/jobs":
			name = "service.http_submit"
		case q.Method == http.MethodGet && strings.HasPrefix(q.URL.Path, "/v1/jobs/"):
			name = "service.http_status"
		case q.URL.Path == "/metrics":
			name = "service.http_metrics"
		}
		parent, _ := strconv.Atoi(q.Header.Get(hdrSpan))
		req := q.Header.Get(hdrReq)
		id := r.begin()
		if req != "" {
			r.inflight.Store(req, id)
			defer r.inflight.Delete(req)
		}
		start := time.Now()
		next.ServeHTTP(w, q)
		r.end(id, int32(parent), name, start, time.Now(), 1, req, true)
	})
}

// tracedAPI times the two calls the load generator's requests reach
// beneath the HTTP layer; every other method passes through.
type tracedAPI struct {
	service.API
	rec *recorder
}

func (t tracedAPI) parent(req string) int32 {
	if v, ok := t.rec.inflight.Load(req); ok {
		return v.(int32)
	}
	return 0
}

// SubmitNowait finds its request by the job's name, which the load
// generator sets to the request ID.
func (t tracedAPI) SubmitNowait(j *workload.Job) (workload.JobID, error) {
	req := j.Name
	id := t.rec.begin()
	start := time.Now()
	jid, err := t.API.SubmitNowait(j)
	t.rec.end(id, t.parent(req), "shard.submit", start, time.Now(), 1, req, true)
	return jid, err
}

func (t tracedAPI) Job(jid workload.JobID) (service.JobInfo, bool) {
	req := statusReq(jid)
	id := t.rec.begin()
	start := time.Now()
	info, ok := t.API.Job(jid)
	t.rec.end(id, t.parent(req), "shard.job_lookup", start, time.Now(), 1, req, true)
	return info, ok
}

// statusReq is the request ID of the status read for a job.
func statusReq(id workload.JobID) string { return "status-" + strconv.FormatInt(int64(id), 10) }
