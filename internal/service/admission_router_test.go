package service_test

// The admission_denied 429 end to end. A service charges no policy —
// the router in front of it does — so this test lives outside the
// package and serves a P=1 router through service.NewHandler, the way
// dollympd does.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dollymp/internal/admission"
	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/sched/random"
	"dollymp/internal/service"
	"dollymp/internal/shard"
	"dollymp/internal/workload"
)

// TestHTTPAdmissionDenied429: a policy denial is the other 429 — same
// status, distinct code, plus the policy's machine-readable reason and
// its exact retry hint. A frozen clock makes the token bucket
// deterministic: burst 1 admits exactly one job, the next is denied
// with the full token-refill interval as the hint. The router is never
// started, so queued jobs stay queued and every decision is the
// policy's.
func TestHTTPAdmissionDenied429(t *testing.T) {
	frozen := time.Unix(1000, 0)
	r, err := shard.New(shard.Config{
		Fleet:         cluster.Uniform(8, resources.Cores(8, 16)),
		NewScheduler:  func(int) (sched.Scheduler, error) { return random.New(1), nil },
		Seed:          1,
		Deterministic: true,
		QueueCap:      64,
		Admission: admission.NewTokenBucket(admission.TokenBucketConfig{
			Rate: 2, Burst: 1,
			Now: func() time.Time { return frozen },
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(r))
	defer srv.Close()
	body, _ := json.Marshal(&workload.Job{Name: "t", App: "test", Phases: []workload.Phase{{
		Name: "p", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 2,
	}}})
	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp := post()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", got)
	}
	var er service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != service.CodeAdmissionDenied {
		t.Fatalf("code %q, want %q", er.Error.Code, service.CodeAdmissionDenied)
	}
	if er.Error.Reason != admission.ReasonRateLimited {
		t.Fatalf("reason %q, want %q", er.Error.Reason, admission.ReasonRateLimited)
	}
	// One token at rate 2/s refills in 500ms exactly.
	if er.Error.RetryAfterMS != 500 {
		t.Fatalf("retry_after_ms %d, want 500", er.Error.RetryAfterMS)
	}

	// The admission view accounts for both decisions.
	aresp, err := http.Get(srv.URL + "/v1/admission")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	var st service.AdmissionStatus
	if err := json.NewDecoder(aresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Policy != "token-bucket" || st.Denied != 1 {
		t.Fatalf("admission view %+v, want token-bucket with 1 denial", st)
	}
	if st.Stats == nil || st.Stats.Admitted != 1 || st.Stats.Denied != 1 {
		t.Fatalf("policy stats %+v, want 1 admitted / 1 denied", st.Stats)
	}
}
