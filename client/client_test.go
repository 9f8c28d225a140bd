package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dollymp"
	"dollymp/internal/resources"
	"dollymp/internal/service"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// testJob is a small two-task job the drain finishes in a few virtual
// slots; tenant labels drive the filter and admission tests.
func testJob(tenant string) *dollymp.Job {
	return &dollymp.Job{
		Name: "t", App: "test", Tenant: tenant,
		Phases: []workload.Phase{{
			Name: "p", Tasks: 2, Demand: resources.Cores(1, 1),
			MeanDuration: 2, SDDuration: 0,
		}},
	}
}

// newTestDeployment boots a started 2-shard router behind the real
// HTTP handler.
func newTestDeployment(t *testing.T) (*dollymp.Router, *httptest.Server) {
	t.Helper()
	r, err := dollymp.NewRouter(dollymp.RouterConfig{
		Fleet:  dollymp.LargeFleet(8, 1),
		Shards: 2,
		NewScheduler: func(int) (dollymp.Scheduler, error) {
			return dollymp.NewScheduler(dollymp.KindRandom)
		},
		Seed: 1, Deterministic: true, QueueCap: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	srv := httptest.NewServer(dollymp.NewAPIHandler(r))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = r.Stop(ctx)
	})
	return r, srv
}

// TestClientEndToEnd drives the whole SDK surface against a real
// sharded router: batch and single submission, completion waiting with
// counter cross-checks, lifecycle reads, the tenant filter, topology,
// the admission view, readiness, and the error-surface probe.
func TestClientEndToEnd(t *testing.T) {
	_, srv := newTestDeployment(t)
	c := New(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	batch := []*dollymp.Job{testJob("acme"), testJob("acme"), testJob("acme")}
	ids, err := c.SubmitBatch(ctx, batch)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if len(ids) != 3 {
		t.Fatalf("SubmitBatch returned %d ids, want 3", len(ids))
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, testJob("globex")); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}

	st, err := c.WaitDrained(ctx, WaitConfig{Jobs: 5})
	if err != nil {
		t.Fatalf("WaitDrained: %v", err)
	}
	if st.Completed < 5 || st.Submitted < 5 {
		t.Fatalf("WaitDrained stats = %+v, want >= 5 completed and submitted", st)
	}

	info, err := c.Job(ctx, ids[0])
	if err != nil {
		t.Fatalf("Job(%d): %v", ids[0], err)
	}
	if info.ID != ids[0] || info.Tenant != "acme" {
		t.Errorf("Job(%d) = %+v, want id %d tenant acme", ids[0], info, ids[0])
	}
	if _, err := c.Job(ctx, 999999); err == nil {
		t.Error("Job(999999): want not_found error")
	} else {
		var apiErr *Error
		if !errors.As(err, &apiErr) || apiErr.Code != CodeNotFound {
			t.Errorf("Job(999999) error = %v, want *Error with code not_found", err)
		}
	}

	list, err := c.Jobs(ctx, JobQuery{Tenant: "acme"})
	if err != nil {
		t.Fatalf("Jobs(tenant=acme): %v", err)
	}
	if list.Total != 3 {
		t.Errorf("tenant filter total = %d, want 3", list.Total)
	}
	for _, j := range list.Jobs {
		if j.Tenant != "acme" {
			t.Errorf("tenant filter leaked job %d with tenant %q", j.ID, j.Tenant)
		}
	}
	one, err := c.Jobs(ctx, JobQuery{Limit: 1})
	if err != nil || len(one.Jobs) != 1 || one.Total != 5 {
		t.Errorf("Jobs(limit=1) = %d jobs total %d (err %v), want 1 of 5", len(one.Jobs), one.Total, err)
	}

	shards, err := c.Shards(ctx)
	if err != nil || len(shards) != 2 {
		t.Fatalf("Shards = %d entries (err %v), want 2", len(shards), err)
	}
	snap, err := c.Cluster(ctx)
	if err != nil || snap.Jobs.Submitted != 5 {
		t.Errorf("Cluster: submitted %d (err %v), want 5", snap.Jobs.Submitted, err)
	}
	adm, err := c.Admission(ctx)
	if err != nil || adm.Policy != "none" {
		t.Errorf("Admission = %+v (err %v), want policy none", adm, err)
	}
	if err := c.Ready(ctx); err != nil {
		t.Errorf("Ready: %v", err)
	}
	if fv, err := c.Federation(ctx); err != nil || fv != nil {
		t.Errorf("Federation on plain daemon = %v, %v; want nil, nil", fv, err)
	}

	rep, err := c.Probe(ctx, 2)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if rep.Shards != 2 || rep.AdmissionPolicy != "none" || rep.EnvelopeChecks < 7 {
		t.Errorf("Probe report = %+v, want 2 shards, policy none, >= 7 envelope checks", rep)
	}
	if c.Retries() != 0 {
		t.Errorf("Retries = %d on an uncontended run, want 0", c.Retries())
	}
}

// envelope429 renders a retryable rejection the way the daemon does.
func envelope429(w http.ResponseWriter, code, reason string, ms int64, ids []workload.JobID, rejected int) {
	service.SetRetryAfter(w, time.Duration(ms)*time.Millisecond)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(service.ErrorResponse{
		Error:    service.APIError{Code: code, Message: "nope", Reason: reason, RetryAfterMS: ms},
		IDs:      ids,
		Rejected: rejected,
	})
}

func accept(w http.ResponseWriter, ids ...workload.JobID) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(map[string][]workload.JobID{"ids": ids})
}

// TestSubmitBatchPartialAcceptance: a 429 mid-trace resubmits only the
// rejected tail, and the final ID list covers the whole batch in order.
func TestSubmitBatchPartialAcceptance(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		jobs, err := trace.DecodeSubmission(body)
		if err != nil {
			t.Errorf("server got undecodable submission: %v", err)
		}
		switch calls.Add(1) {
		case 1:
			if len(jobs) != 4 {
				t.Errorf("first POST carried %d jobs, want 4", len(jobs))
			}
			envelope429(w, service.CodeQueueFull, "", 1, []workload.JobID{1, 2}, 2)
		default:
			if len(jobs) != 2 {
				t.Errorf("retry POST carried %d jobs, want only the rejected tail of 2", len(jobs))
			}
			accept(w, 3, 4)
		}
	}))
	defer srv.Close()

	c := New(srv.URL)
	jobs := []*dollymp.Job{testJob("a"), testJob("a"), testJob("a"), testJob("a")}
	ids, err := c.SubmitBatch(context.Background(), jobs)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	want := []dollymp.JobID{1, 2, 3, 4}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if c.Retries() != 1 {
		t.Errorf("Retries = %d, want 1", c.Retries())
	}
}

// TestSubmitRetryClassification: admission_denied and bare 429s retry;
// invalid_argument is fatal on the first answer.
func TestSubmitRetryClassification(t *testing.T) {
	t.Run("admission_denied", func(t *testing.T) {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) == 1 {
				envelope429(w, service.CodeAdmissionDenied, "rate_limited", 2, nil, 1)
				return
			}
			accept(w, 1)
		}))
		defer srv.Close()
		c := New(srv.URL)
		if _, err := c.Submit(context.Background(), testJob("a")); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if calls.Load() != 2 || c.Retries() != 1 {
			t.Errorf("calls %d retries %d, want 2 and 1", calls.Load(), c.Retries())
		}
	})
	t.Run("bare_429", func(t *testing.T) {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) == 1 {
				http.Error(w, "slow down", http.StatusTooManyRequests)
				return
			}
			accept(w, 1)
		}))
		defer srv.Close()
		c := New(srv.URL)
		if _, err := c.Submit(context.Background(), testJob("a")); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if calls.Load() != 2 {
			t.Errorf("calls = %d, want 2 (one retry)", calls.Load())
		}
	})
	t.Run("fatal_code", func(t *testing.T) {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			service.WriteError(w, http.StatusBadRequest, service.CodeInvalidArgument, "bad job")
		}))
		defer srv.Close()
		c := New(srv.URL)
		_, err := c.Submit(context.Background(), testJob("a"))
		var apiErr *Error
		if !errors.As(err, &apiErr) || apiErr.Code != CodeInvalidArgument || apiErr.Retryable() {
			t.Fatalf("err = %v, want non-retryable *Error invalid_argument", err)
		}
		if calls.Load() != 1 {
			t.Errorf("calls = %d, want 1 (no retry on fatal code)", calls.Load())
		}
	})
	t.Run("ctx_expiry_bounds_retries", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			envelope429(w, service.CodeQueueFull, "", 5, nil, 1)
		}))
		defer srv.Close()
		c := New(srv.URL)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		_, err := c.Submit(ctx, testJob("a"))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
	})
}

// TestSubmitThroughGatewayChargesItsPolicy: a client pointed at a
// federation gateway submits through it, so the gateway's edge policy
// is charged exactly once per job and every admitted job reaches a
// member — no submission slips past the front door.
func TestSubmitThroughGatewayChargesItsPolicy(t *testing.T) {
	const n = 20
	dir := t.TempDir()
	man := dollymp.FederationManifest{Shards: 2, Members: []dollymp.FederationMember{
		{Name: "m0", JournalDir: filepath.Join(dir, "m0"), Residues: []int{0}},
		{Name: "m1", JournalDir: filepath.Join(dir, "m1"), Residues: []int{1}},
	}}
	var members []*dollymp.Router
	for i := range man.Members {
		r, _, err := dollymp.NewMemberRouter(man, man.Members[i].Name, dollymp.RouterConfig{
			Fleet: dollymp.LargeFleet(4, 1),
			NewScheduler: func(int) (dollymp.Scheduler, error) {
				return dollymp.NewScheduler(dollymp.KindRandom)
			},
			Seed: 1, Deterministic: true, QueueCap: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		srv := httptest.NewServer(dollymp.NewMemberHandler(r))
		t.Cleanup(func() {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			_ = r.Stop(ctx)
		})
		man.Members[i].URL = srv.URL
		members = append(members, r)
	}
	frozen := time.Unix(1000, 0)
	policy := dollymp.NewTokenBucket(dollymp.TokenBucketConfig{
		Rate: 1, Burst: n, Now: func() time.Time { return frozen },
	})
	gw, err := dollymp.NewGateway(dollymp.GatewayConfig{Manifest: man, Admission: policy})
	if err != nil {
		t.Fatal(err)
	}
	gsrv := httptest.NewServer(gw.Handler())
	defer gsrv.Close()

	c := New(gsrv.URL)
	for i := 0; i < n; i++ {
		if _, err := c.Submit(context.Background(), testJob("a")); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	var submitted int64
	for _, r := range members {
		submitted += r.Counts().Submitted
	}
	if admitted := policy.Stats().Admitted; admitted != n || submitted != n {
		t.Fatalf("gateway policy admitted %d, members accepted %d; want both %d", admitted, submitted, n)
	}
}

// TestErrorRetryAfterPreference: the envelope's retry_after_ms beats
// the whole-second Retry-After header; the header is the fallback.
func TestErrorRetryAfterPreference(t *testing.T) {
	resp := &http.Response{StatusCode: 429, Header: http.Header{"Retry-After": []string{"3"}}}
	e := decodeError(resp, []byte(`{"error":{"code":"queue_full","message":"full","retry_after_ms":25}}`))
	if e.RetryAfter != 25*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 25ms from the envelope", e.RetryAfter)
	}
	e = decodeError(resp, []byte(`{"error":{"code":"queue_full","message":"full"}}`))
	if e.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter = %v, want 3s from the header", e.RetryAfter)
	}
	if !e.Retryable() {
		t.Error("queue_full must be retryable")
	}
}
