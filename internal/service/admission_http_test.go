package service

// HTTP tests for the edge-admission surface: the queue_full 429 with
// its Retry-After contract (the admission_denied one is charged by the
// router, admission_router_test.go), the ?tenant= job filter, and
// MuxFor's deterministic sorted Allow header.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// unstartedServer serves a service whose loop never runs, so queued
// jobs stay queued and every admission decision is observable.
func unstartedServer(t *testing.T, s *Service) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestMuxForAllowSorted: the Allow header on a 405 is sorted by method
// name no matter the registration order, so clients (and the SDK
// probe) may compare it literally and gateway and member answer
// byte-identically.
func TestMuxForAllowSorted(t *testing.T) {
	noop := func(w http.ResponseWriter, r *http.Request) {}
	// Deliberately unsorted registration order.
	srv := httptest.NewServer(MuxFor([]Route{
		{"POST", "/v1/thing", noop},
		{"DELETE", "/v1/thing", noop},
		{"GET", "/v1/thing", noop},
	}))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodPatch, srv.URL+"/v1/thing", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if allow := resp.Header.Get("Allow"); allow != "DELETE, GET, POST" {
		t.Fatalf("Allow %q, want %q", allow, "DELETE, GET, POST")
	}
	decodeEnvelope(t, resp, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
}

// TestSetRetryAfter: sub-second hints round up to 1 (the header's
// resolution is whole seconds; the precise value rides in
// retry_after_ms), exact seconds stay exact, and zero/negative hints
// still write "0" — the header's presence is the 429 contract.
func TestSetRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{-time.Second, "0"},
		{25 * time.Millisecond, "1"},
		{time.Second, "1"},
		{2500 * time.Millisecond, "3"},
	} {
		w := httptest.NewRecorder()
		SetRetryAfter(w, tc.d)
		if got := w.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("SetRetryAfter(%v): header %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestHTTPQueueFull429RetryAfter: a full queue answers 429 queue_full
// with both halves of the retry contract — the coarse Retry-After
// header and the precise retry_after_ms in the envelope.
func TestHTTPQueueFull429RetryAfter(t *testing.T) {
	srv := unstartedServer(t, newTestService(t, 2))
	body, _ := json.Marshal(testJob(1, 2))
	for i := 0; i < 2; i++ {
		if resp, out := postJSON(t, srv.URL+"/v1/jobs", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: %d %s", i, resp.StatusCode, out)
		}
	}
	resp, out := postJSON(t, srv.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", got)
	}
	var er ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeQueueFull || er.Error.Reason != "" {
		t.Fatalf("envelope %+v, want code queue_full with no reason", er.Error)
	}
	if er.Error.RetryAfterMS != DefaultQueueFullRetry.Milliseconds() {
		t.Fatalf("retry_after_ms %d, want %d", er.Error.RetryAfterMS, DefaultQueueFullRetry.Milliseconds())
	}
	if er.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", er.Rejected)
	}
}

// TestSubmitErrorSubMillisecondHint: a denial's retry hint under a
// millisecond rides in retry_after_ms as 1, not 0 — 0 means "no hint",
// and the client would wait out the whole-second header instead.
func TestSubmitErrorSubMillisecondHint(t *testing.T) {
	w := httptest.NewRecorder()
	WriteSubmitError(w, &AdmissionError{RetryAfter: 300 * time.Microsecond}, nil, 1)
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.RetryAfterMS != 1 {
		t.Fatalf("retry_after_ms %d, want 1", er.Error.RetryAfterMS)
	}
}

// TestHTTPJobsTenantFilter: ?tenant= narrows the job list to one
// tenant's jobs, composing with pagination totals; an unknown tenant
// matches nothing.
func TestHTTPJobsTenantFilter(t *testing.T) {
	srv := unstartedServer(t, newTestService(t, 16))
	submit := func(tenant string) {
		t.Helper()
		j := testJob(1, 2)
		j.Tenant = tenant
		body, _ := json.Marshal(j)
		if resp, out := postJSON(t, srv.URL+"/v1/jobs", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", tenant, resp.StatusCode, out)
		}
	}
	submit("acme")
	submit("globex")
	submit("acme")

	list := func(query string) jobListResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %s: %d", query, resp.StatusCode)
		}
		var out jobListResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got := list("?tenant=acme")
	if got.Total != 2 || len(got.Jobs) != 2 {
		t.Fatalf("tenant=acme: total %d, %d rows", got.Total, len(got.Jobs))
	}
	for _, j := range got.Jobs {
		if j.Tenant != "acme" {
			t.Fatalf("tenant=acme returned job of tenant %q", j.Tenant)
		}
	}
	if got := list("?tenant=acme&limit=1"); got.Total != 2 || len(got.Jobs) != 1 {
		t.Fatalf("tenant filter + pagination: total %d, %d rows", got.Total, len(got.Jobs))
	}
	if got := list("?tenant=nobody"); got.Total != 0 || len(got.Jobs) != 0 {
		t.Fatalf("unknown tenant matched %d jobs", got.Total)
	}
	if got := list(""); got.Total != 3 {
		t.Fatalf("unfiltered total %d, want 3", got.Total)
	}
}
