package federation

// The gateway is the federation's single front door, and it is
// deliberately stateless: every answer is computed from the static
// manifest plus live member responses, so gateways can be restarted or
// replicated freely. Routing needs no tables — job N lives with the
// member owning residue (N-1) mod P unless a takeover moved it, and
// then the live-member scan finds it — and the merged views (/v1/*,
// /metrics) are concatenations or sums of member answers, valid because
// members label everything by GLOBAL shard residue.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dollymp/internal/admission"
	"dollymp/internal/service"
	"dollymp/internal/trace"
)

// Gateway defaults.
const (
	DefaultProbeInterval = 500 * time.Millisecond
	DefaultProbeTimeout  = 2 * time.Second
	// DefaultFailThreshold is how many consecutive probe transport
	// failures declare a member dead. Any HTTP response — even a 503
	// from a draining member — counts as alive: drain is not death, and
	// adopting a draining member's journal would run its jobs twice.
	DefaultFailThreshold = 3
	defaultClientTimeout = 30 * time.Second
)

// GatewayConfig configures a Gateway.
type GatewayConfig struct {
	Manifest Manifest
	// ProbeInterval, ProbeTimeout, FailThreshold tune death detection;
	// zero values take the defaults above.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailThreshold int
	// ClientTimeout bounds proxied member requests; 0 means 30s.
	ClientTimeout time.Duration
	// Admission, when non-nil, polices submissions at the gateway — the
	// federation's outermost edge — before any member is contacted. The
	// gateway is stateless and owns no queue, so the policy sees a zero
	// Snapshot (QueueCap 0 = unknown capacity, which pressure-gated
	// policies treat as always-enforce). A batch is charged the way a
	// member charges one: job by job in order, stopping at the first
	// denial; the admitted prefix is forwarded and the rest is refused
	// with the denial's retry hint. Members may run their own policies
	// too; decisions then stack, outermost first.
	Admission admission.Policy
}

// memberState is the gateway's view of one member. Guarded by g.mu.
type memberState struct {
	Member
	alive     bool
	fails     int
	adopted   bool   // this death's journal has been absorbed
	adoptedBy string // surviving member that absorbed it
	lastErr   string
}

// Gateway fronts the federation: it proxies and merges the /v1 surface
// over the members, probes their health, and drives journal takeover
// when one dies. Build with NewGateway, serve Handler, Start the
// prober, Stop to halt it.
type Gateway struct {
	cfg    GatewayConfig
	client *http.Client // proxied requests
	probeC *http.Client // health probes (short timeout)

	mu      sync.Mutex
	members []*memberState
	rr      int // round-robin submit cursor

	denied atomic.Int64 // submissions refused by cfg.Admission

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
	doneCh    chan struct{}
}

// NewGateway validates the manifest (URLs required) and builds a
// stopped gateway; call Start to launch the prober.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if err := cfg.Manifest.Validate(true); err != nil {
		return nil, err
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.ClientTimeout <= 0 {
		cfg.ClientTimeout = defaultClientTimeout
	}
	g := &Gateway{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.ClientTimeout},
		probeC: &http.Client{Timeout: cfg.ProbeTimeout},
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	for _, mb := range cfg.Manifest.Members {
		g.members = append(g.members, &memberState{Member: mb, alive: true})
	}
	return g, nil
}

// Start launches the prober goroutine. Idempotent.
func (g *Gateway) Start() {
	g.startOnce.Do(func() { go g.probeLoop() })
}

// Stop halts the prober (the HTTP handler keeps working statelessly).
func (g *Gateway) Stop() {
	g.stopOnce.Do(func() { close(g.stopCh) })
	<-g.doneCh
}

// aliveMembers snapshots the live member list, rotated so successive
// calls start at successive members (round-robin for submissions). It
// hands out the immutable manifest rows, not the prober's state, so
// callers cannot read what probeOnce writes.
func (g *Gateway) aliveMembers(rotate bool) []Member {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.members)
	start := 0
	if rotate {
		start = g.rr % n
		g.rr++
	}
	out := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		m := g.members[(start+i)%n]
		if m.alive {
			out = append(out, m.Member)
		}
	}
	return out
}

// jobCandidates lists the members that may hold a job of global residue
// class res, in lookup order: the class's owner first, then every other
// live member (a takeover moves jobs off their residue class). Members
// the prober holds dead are left out. Like aliveMembers, the list is
// built under mu from immutable manifest rows.
func (g *Gateway) jobCandidates(res int) []Member {
	owner := g.cfg.Manifest.OwnerOf(res)
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Member, 0, len(g.members))
	if owner >= 0 && g.members[owner].alive {
		out = append(out, g.members[owner].Member)
	}
	for i, m := range g.members {
		if i != owner && m.alive {
			out = append(out, m.Member)
		}
	}
	return out
}

// AdmissionSnapshot implements admission.SnapshotProvider: the gateway
// is stateless and owns no queue, so its edge policy sees the zero
// Snapshot (QueueCap 0 = unknown capacity, which pressure-gated
// policies treat as always-enforce).
func (g *Gateway) AdmissionSnapshot() admission.Snapshot { return admission.Snapshot{} }

// Handler returns the gateway's HTTP surface: the member /v1 routes
// proxied or federated, plus GET /v1/federation for membership state.
// service.MuxFor gives it the members' envelope 404/405 treatment, so
// clients see one error surface on both sides of the gateway.
func (g *Gateway) Handler() http.Handler {
	return service.MuxFor([]service.Route{
		{Method: "POST", Pattern: "/v1/jobs", Handler: g.submit},
		{Method: "GET", Pattern: "/v1/jobs", Handler: g.listJobs},
		{Method: "GET", Pattern: "/v1/jobs/{id}", Handler: g.job},
		{Method: "GET", Pattern: "/v1/shards", Handler: g.shards},
		{Method: "GET", Pattern: "/v1/cluster", Handler: g.cluster},
		{Method: "GET", Pattern: "/v1/status", Handler: g.cluster},
		{Method: "GET", Pattern: "/v1/admission", Handler: g.admission},
		{Method: "GET", Pattern: "/v1/federation", Handler: g.federation},
		{Method: "GET", Pattern: "/healthz", Handler: g.health},
		{Method: "GET", Pattern: "/readyz", Handler: g.ready},
		{Method: "GET", Pattern: "/metrics", Handler: g.metrics},
	})
}

// passThrough copies a member response to the client verbatim,
// including the Retry-After a member 429 carries — dropping it would
// strip the backoff contract from every proxied rejection.
func passThrough(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// submit charges the edge policy, if any, and forwards POST /v1/jobs to
// a live member. A batch is charged the way a member's handler submits
// one — in order, stopping at the first denial — so the answer has a
// member's shape: ids are exactly the jobs that entered, rejected is
// the rest of the batch, and the denial's retry hint rides along. With
// nothing denied the body goes to the member raw; otherwise only the
// admitted prefix, re-encoded.
func (g *Gateway) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxBodyBytes))
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, service.CodeInvalidArgument, fmt.Sprintf("read body: %v", err))
		return
	}
	p := g.cfg.Admission
	if p == nil {
		g.forward(w, body, passThrough)
		return
	}
	jobs, err := trace.DecodeSubmission(body)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, service.CodeInvalidArgument, err.Error())
		return
	}
	n := 0
	var denial error
	for ; n < len(jobs); n++ {
		if denial = service.ChargeAdmission(r.Context(), p, g, jobs[n], func() { g.denied.Add(1) }); denial != nil {
			break
		}
	}
	switch {
	case denial == nil:
		g.forward(w, body, passThrough)
		return
	case n == 0:
		service.WriteSubmitError(w, denial, nil, len(jobs))
		return
	}
	var prefix bytes.Buffer
	if err := trace.Write(&prefix, jobs[:n]); err != nil {
		service.WriteError(w, http.StatusInternalServerError, service.CodeInternal, err.Error())
		return
	}
	g.forward(w, prefix.Bytes(), func(w http.ResponseWriter, resp *http.Response) {
		defer resp.Body.Close()
		var er service.ErrorResponse // a 202's {"ids"} decodes into it too
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			service.WriteError(w, http.StatusBadGateway, service.CodeUnavailable, fmt.Sprintf("member submit answer: %v", err))
			return
		}
		if resp.StatusCode == http.StatusAccepted {
			service.WriteSubmitError(w, denial, er.IDs, len(jobs)-len(er.IDs))
			return
		}
		// The member refused part of the prefix: its error comes first in
		// batch order, and the denied jobs are rejected along with it.
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		er.Rejected = len(jobs) - len(er.IDs)
		writeJSON(w, resp.StatusCode, er)
	})
}

// forward posts body to a live member, round-robin, falling through
// transport failures to the next — a dying member never turns into a
// client-visible error while any member still answers — and hands the
// first answer to answer. Any answer — 202, 429, 400 — is final:
// retrying elsewhere could accept the same batch twice.
func (g *Gateway) forward(w http.ResponseWriter, body []byte, answer func(http.ResponseWriter, *http.Response)) {
	for _, m := range g.aliveMembers(true) {
		resp, err := g.client.Post(m.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			continue // transport failure: the prober will notice; try a sibling
		}
		answer(w, resp)
		return
	}
	service.WriteError(w, http.StatusBadGateway, service.CodeUnavailable,
		fmt.Sprintf("no live member reachable (%d in manifest)", len(g.cfg.Manifest.Members)))
}

// job routes GET /v1/jobs/{id} by residue-class arithmetic: the owner
// of ID n is the member owning residue (n-1) mod P. A takeover moves
// jobs off their residue class, so a miss (or a dead owner) falls back
// to scanning the other live members.
func (g *Gateway) job(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil || id < 1 {
		service.WriteError(w, http.StatusBadRequest, service.CodeInvalidArgument,
			fmt.Sprintf("bad job id %q", r.PathValue("id")))
		return
	}
	for _, m := range g.jobCandidates((int(id) - 1) % g.cfg.Manifest.Shards) {
		resp, err := g.client.Get(m.URL + "/v1/jobs/" + strconv.FormatInt(id, 10))
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			passThrough(w, resp)
			return
		}
		resp.Body.Close()
	}
	service.WriteError(w, http.StatusNotFound, service.CodeNotFound, fmt.Sprintf("no job %d", id))
}

// federate GETs path on every live member and hands each 200 body to
// collect, in member order. It reports whether the caller has a merged
// view to write; when it does not, federate has already answered: 502
// if a body could not be folded or no member was reachable, or — when
// members answered but none with data — the first member's own error
// reply verbatim, so a bad query gets the member's 400 envelope, not a
// bogus 502.
func (g *Gateway) federate(w http.ResponseWriter, path string, collect func(body []byte) error) bool {
	answered, errStatus := 0, 0
	var errBody []byte
	for _, m := range g.aliveMembers(false) {
		resp, err := g.client.Get(m.URL + path)
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			if errStatus == 0 {
				errStatus, errBody = resp.StatusCode, body
			}
			continue
		}
		if err := collect(body); err != nil {
			service.WriteError(w, http.StatusBadGateway, service.CodeUnavailable,
				fmt.Sprintf("federation: %s from %s: %v", path, m.Name, err))
			return false
		}
		answered++
	}
	switch {
	case answered > 0:
		return true
	case errStatus != 0:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(errStatus)
		_, _ = w.Write(errBody)
	default:
		service.WriteError(w, http.StatusBadGateway, service.CodeUnavailable, "no live member reachable")
	}
	return false
}

// listJobs federates GET /v1/jobs: the same filter is forwarded to
// every live member and the pages are concatenated in ID order. The
// returned total is the federation-wide match count; limit/offset are
// applied per member, so a page can hold up to members×limit records —
// the listing is a debugging surface, not a pagination contract.
func (g *Gateway) listJobs(w http.ResponseWriter, r *http.Request) {
	type page struct {
		Jobs   []service.JobInfo `json:"jobs"`
		Total  int               `json:"total"`
		Offset int               `json:"offset"`
		Limit  int               `json:"limit"`
	}
	var merged page
	q := ""
	if r.URL.RawQuery != "" {
		q = "?" + r.URL.RawQuery
	}
	if !g.federate(w, "/v1/jobs"+q, func(body []byte) error {
		var p page
		if err := json.Unmarshal(body, &p); err != nil {
			return err
		}
		merged.Jobs = append(merged.Jobs, p.Jobs...)
		merged.Total += p.Total
		merged.Limit = p.Limit
		// Every member parsed the same offset but clamped it to its own
		// total; the largest is what the query asked for, or as near as
		// any member got.
		merged.Offset = max(merged.Offset, p.Offset)
		return nil
	}) {
		return
	}
	if merged.Jobs == nil {
		merged.Jobs = []service.JobInfo{}
	}
	sort.Slice(merged.Jobs, func(i, j int) bool { return merged.Jobs[i].ID < merged.Jobs[j].ID })
	writeJSON(w, http.StatusOK, merged)
}

// shards federates GET /v1/shards: rows are stamped with GLOBAL residue
// indices by the members, so concatenating and sorting yields the whole
// deployment's table. Shards owned by a dead member are simply absent.
func (g *Gateway) shards(w http.ResponseWriter, r *http.Request) {
	var rows []service.ShardStatus
	if !g.federate(w, "/v1/shards", func(body []byte) error {
		var p struct {
			Shards []service.ShardStatus `json:"shards"`
		}
		if err := json.Unmarshal(body, &p); err != nil {
			return err
		}
		rows = append(rows, p.Shards...)
		return nil
	}) {
		return
	}
	if rows == nil {
		rows = []service.ShardStatus{}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Shard < rows[j].Shard })
	writeJSON(w, http.StatusOK, map[string][]service.ShardStatus{"shards": rows})
}

// cluster federates GET /v1/cluster (and its /v1/status alias) by the
// merge rules of service.ClusterSnapshot.Add over the members' views.
func (g *Gateway) cluster(w http.ResponseWriter, r *http.Request) {
	agg := service.ClusterSnapshot{Shards: g.cfg.Manifest.Shards}
	if !g.federate(w, "/v1/cluster", func(body []byte) error {
		var snap service.ClusterSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return err
		}
		agg.Add(snap)
		return nil
	}) {
		return
	}
	writeJSON(w, http.StatusOK, agg)
}

// admission federates GET /v1/admission: member views are summed
// (policy names join with "+" when members disagree) and the gateway's
// own edge policy, if any, is folded in on top — so the response
// reflects every decision point a submission can hit.
func (g *Gateway) admission(w http.ResponseWriter, r *http.Request) {
	agg := service.AdmissionStatus{Policy: "none"}
	if !g.federate(w, "/v1/admission", func(body []byte) error {
		var st service.AdmissionStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		agg.Add(st)
		return nil
	}) {
		return
	}
	own := service.AdmissionStatusOf(g.cfg.Admission, g.denied.Load())
	own.Add(agg)
	writeJSON(w, http.StatusOK, own)
}

// MemberStatus is one row of GET /v1/federation.
type MemberStatus struct {
	Name       string `json:"name"`
	URL        string `json:"url"`
	JournalDir string `json:"journal_dir"`
	Residues   []int  `json:"residues"`
	Alive      bool   `json:"alive"`
	Fails      int    `json:"consecutive_failures"`
	AdoptedBy  string `json:"adopted_by,omitempty"`
	LastError  string `json:"last_error,omitempty"`
}

// federation reports the gateway's membership view.
func (g *Gateway) federation(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	out := struct {
		Shards  int            `json:"shards"`
		Members []MemberStatus `json:"members"`
	}{Shards: g.cfg.Manifest.Shards}
	for _, m := range g.members {
		out.Members = append(out.Members, MemberStatus{
			Name: m.Name, URL: m.URL, JournalDir: m.JournalDir, Residues: m.Residues,
			Alive: m.alive, Fails: m.fails, AdoptedBy: m.adoptedBy, LastError: m.lastErr,
		})
	}
	g.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// health: the gateway is healthy while it can route anywhere.
func (g *Gateway) health(w http.ResponseWriter, r *http.Request) {
	alive := len(g.aliveMembers(false))
	if alive == 0 {
		service.WriteError(w, http.StatusServiceUnavailable, service.CodeUnavailable, "no live members")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "members": len(g.cfg.Manifest.Members), "alive": alive,
	})
}

// ready: the gateway is ready when every member it still considers
// alive answers /readyz 200 (dead members are the takeover path's
// problem, not readiness's) — and at least one member is serving.
func (g *Gateway) ready(w http.ResponseWriter, r *http.Request) {
	live := g.aliveMembers(false)
	ready := 0
	for _, m := range live {
		resp, err := g.probeC.Get(m.URL + "/readyz")
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			ready++
		}
		resp.Body.Close()
	}
	if ready == 0 || ready < len(live) {
		service.WriteError(w, http.StatusServiceUnavailable, service.CodeNotReady,
			fmt.Sprintf("%d of %d live members ready", ready, len(live)))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metrics merges the members' Prometheus expositions at the text level:
// every member labels its series by GLOBAL shard residue, so the series
// sets are disjoint and the only conflict is the per-family HELP/TYPE
// header lines, which are deduplicated (first member wins). The strict
// exposition rules — TYPE before any of its samples, one TYPE per
// family — survive because each family's first appearance carries its
// header and later samples of a seen family need none.
func (g *Gateway) metrics(w http.ResponseWriter, r *http.Request) {
	var out bytes.Buffer
	seen := map[string]bool{}
	if !g.federate(w, "/metrics", func(body []byte) error {
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if bytes.HasPrefix(line, []byte("# ")) {
				fields := bytes.Fields(line)
				// "# HELP <family> ..." / "# TYPE <family> <kind>"
				if len(fields) >= 3 && (string(fields[1]) == "HELP" || string(fields[1]) == "TYPE") {
					key := string(fields[1]) + " " + string(fields[2])
					if seen[key] {
						continue
					}
					seen[key] = true
				}
			}
			out.Write(line)
			out.WriteByte('\n')
		}
		return nil
	}) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(out.Bytes())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
