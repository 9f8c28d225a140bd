package service

// Tests for the redesigned /v1 surface: the uniform error envelope,
// list pagination, and the per-shard status endpoint.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dollymp/internal/journal"
	"dollymp/internal/workload"
)

// decodeEnvelope asserts a response is envelope-shaped with the given
// status and code.
func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) ErrorResponse {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("response not envelope-shaped: %v", err)
	}
	if er.Error.Code != wantCode {
		t.Fatalf("code %q, want %q (message %q)", er.Error.Code, wantCode, er.Error.Message)
	}
	if er.Error.Message == "" {
		t.Fatal("envelope without message")
	}
	return er
}

func TestHTTPErrorEnvelopeShape(t *testing.T) {
	_, srv := newTestServer(t, 8)
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Unknown paths hit the catch-all envelope.
	decodeEnvelope(t, get("/v2/nope"), http.StatusNotFound, CodeNotFound)
	decodeEnvelope(t, get("/"), http.StatusNotFound, CodeNotFound)
	// A known path with an unhandled method is an envelope-shaped 405
	// carrying the allowed methods — not the mux's plain-text fallback.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if allow := resp.Header.Get("Allow"); allow == "" {
		t.Fatal("405 without an Allow header")
	}
	decodeEnvelope(t, resp, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	// Missing job vs malformed ID distinguish not_found from
	// invalid_argument.
	decodeEnvelope(t, get("/v1/jobs/999999"), http.StatusNotFound, CodeNotFound)
	decodeEnvelope(t, get("/v1/jobs/abc"), http.StatusBadRequest, CodeInvalidArgument)
	decodeEnvelope(t, get("/v1/jobs/0"), http.StatusBadRequest, CodeInvalidArgument)
	decodeEnvelope(t, get("/v1/jobs/-1"), http.StatusBadRequest, CodeInvalidArgument)
	// Malformed body carries the envelope too.
	presp, out := postJSON(t, srv.URL+"/v1/jobs", []byte("nope"))
	if presp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", presp.StatusCode)
	}
	var er ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil || er.Error.Code != CodeInvalidArgument {
		t.Fatalf("bad-body envelope %s: %v", out, err)
	}
}

func TestHTTPListJobsPagination(t *testing.T) {
	// Unstarted service: all jobs stay queued, so the listing is
	// deterministic.
	s := newTestService(t, 16)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var ids []int64
	for i := 0; i < 5; i++ {
		id, err := s.SubmitNowait(testJob(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, int64(id))
	}

	list := func(query string) JobPage {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", query, resp.StatusCode)
		}
		var lr JobPage
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		return lr
	}

	full := list("")
	if full.Total != 5 || len(full.Jobs) != 5 || full.Limit != DefaultJobsLimit || full.Offset != 0 {
		t.Fatalf("full listing: total %d, %d jobs, limit %d", full.Total, len(full.Jobs), full.Limit)
	}
	for i, j := range full.Jobs {
		if int64(j.ID) != ids[i] {
			t.Fatalf("listing order: job %d has ID %d, want %d", i, j.ID, ids[i])
		}
		if j.State != StateQueued {
			t.Fatalf("job %d state %s", j.ID, j.State)
		}
	}

	page := list("?limit=2&offset=1")
	if page.Total != 5 || len(page.Jobs) != 2 || page.Offset != 1 || page.Limit != 2 {
		t.Fatalf("page: %+v", page)
	}
	if int64(page.Jobs[0].ID) != ids[1] || int64(page.Jobs[1].ID) != ids[2] {
		t.Fatalf("page IDs %d,%d want %d,%d", page.Jobs[0].ID, page.Jobs[1].ID, ids[1], ids[2])
	}

	// Offset past the end is an empty page, not an error.
	if tail := list("?offset=99"); tail.Total != 5 || len(tail.Jobs) != 0 {
		t.Fatalf("past-end page: %+v", tail)
	}
	// State filter: nothing completed yet; everything queued.
	if done := list("?state=completed"); done.Total != 0 {
		t.Fatalf("completed filter: %+v", done)
	}
	if q := list("?state=queued"); q.Total != 5 {
		t.Fatalf("queued filter: %+v", q)
	}
	// Limit above the cap is clamped, not rejected.
	if big := list(fmt.Sprintf("?limit=%d", MaxJobsLimit*10)); big.Limit != MaxJobsLimit {
		t.Fatalf("limit not clamped: %+v", big)
	}

	// Invalid parameters get the envelope.
	for _, q := range []string{"?state=bogus", "?limit=0", "?limit=x", "?offset=-1", "?offset=x"} {
		resp, err := http.Get(srv.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		decodeEnvelope(t, resp, http.StatusBadRequest, CodeInvalidArgument)
	}
}

func TestHTTPShardsEndpoint(t *testing.T) {
	s, srv := newTestServer(t, 8)
	if _, err := s.SubmitNowait(testJob(1, 2)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr ShardsReply
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Shards) != 1 {
		t.Fatalf("unsharded service reports %d shards", len(sr.Shards))
	}
	st := sr.Shards[0]
	if st.Shard != 0 || st.Draining {
		t.Fatalf("shard status: %+v", st)
	}
	if st.Jobs.Submitted != 1 {
		t.Fatalf("shard accounting: %+v", st.Jobs)
	}
}

// TestHTTPJobGone: a service keeps the records of its newest
// finishedKept completed jobs. An older ID it issued answers 410 gone,
// an ID it never issued 404 not_found, and GET /v1/jobs pages over what
// is held while the counts keep every job.
func TestHTTPJobGone(t *testing.T) {
	n := finishedKept + 10
	s, srv := newTestServer(t, n)
	gone, held := runPastTheRing(t, s, n)
	get := func(id workload.JobID) *http.Response {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decodeEnvelope(t, get(gone), http.StatusGone, CodeGone)
	decodeEnvelope(t, get(workload.JobID(n+1)), http.StatusNotFound, CodeNotFound)
	resp := get(held)
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusOK || info.State != StateCompleted {
		t.Fatalf("held job %d: status %d, %+v (%v)", held, resp.StatusCode, info, err)
	}
	resp.Body.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs?state=completed&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	var page JobPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if page.Total != finishedKept || s.Counts().Completed != int64(n) {
		t.Fatalf("listing totals %d completed of %+v, want the %d held", page.Total, s.Counts(), finishedKept)
	}
}

// runPastTheRing runs n one-task jobs through the started service s,
// n > finishedKept, and returns an ID it no longer holds and one it
// does; every ID it issued must be one or the other.
func runPastTheRing(t *testing.T, s *Service, n int) (gone, held workload.JobID) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.SubmitNowait(testJob(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Counts().Completed < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("jobs never completed: %+v", s.Counts())
		}
		time.Sleep(time.Millisecond)
	}
	for id := workload.JobID(1); id <= workload.JobID(n); id++ {
		switch info, ok := s.Job(id); {
		case ok:
			held = id
		case info == Gone(id):
			gone = id
		default:
			t.Fatalf("job %d: neither held nor gone: %+v", id, info)
		}
	}
	if gone == 0 || held == 0 {
		t.Fatalf("want a held and a gone job among %d, got held %d, gone %d", n, held, gone)
	}
	return gone, held
}

// TestAbsorbSkipsGoneJobs: a journal adopted later that names a job
// this service ran and has since forgotten does not bring it back — it
// is skipped like a job the service still holds.
func TestAbsorbSkipsGoneJobs(t *testing.T) {
	n := finishedKept + 10
	s, _ := newTestServer(t, n)
	gone, held := runPastTheRing(t, s, n)
	before := s.Counts()
	for _, replayed := range [][]*journal.ReplayJob{
		{
			{ID: gone, Outcome: journal.OutcomeCompleted, Finish: 9, Flowtime: 1},
			{ID: held, Outcome: journal.OutcomeCompleted, Finish: 9, Flowtime: 1},
		},
		{{ID: gone, Outcome: journal.OutcomePending, Job: testJob(1, 1)}},
	} {
		absorbed, err := s.Absorb(replayed)
		if err != nil || absorbed != 0 || s.Counts() != before {
			t.Fatalf("absorbed %d (%v), counts %+v, want none absorbed and %+v", absorbed, err, s.Counts(), before)
		}
	}
	if info, ok := s.Job(gone); ok || info != Gone(gone) {
		t.Fatalf("job %d came back: %+v", gone, info)
	}
}
