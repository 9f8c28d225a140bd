// Package client is the supported Go SDK for a running dollymp
// deployment — a single daemon, a sharded router, or a federation
// gateway; the caller does not need to know which. It speaks the /v1
// surface, branches on the machine-readable error envelope rather than
// status text, retries backpressure with the server's own Retry-After
// hints, and resubmits only the rejected tail of a partially accepted
// batch. Every request goes to the URL the client was built with, so
// against a federation every submission crosses the gateway and is
// charged its edge policy once.
//
//	c := client.New("http://127.0.0.1:8080")
//	ids, err := c.SubmitBatch(ctx, jobs)
//	info, err := c.Job(ctx, ids[0])
//	stats, err := c.WaitDrained(ctx, client.WaitConfig{Jobs: int64(len(ids))})
//
// Retry policy: "queue_full" (backpressure), "admission_denied" (an
// edge admission policy refusing work right now), and "unavailable" (a
// gateway momentarily without a live member during a takeover) are the
// retryable codes; a bare 429 from a pre-envelope daemon gets the same
// treatment. Every other code — including 5xx-carried "draining" and
// "internal" — aborts with the code surfaced in the *Error.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dollymp"
	"dollymp/internal/service"
	"dollymp/internal/trace"
)

// Error codes carried in the error envelope, re-exported so callers
// branch without importing internal packages. Unknown codes are
// non-retryable.
const (
	CodeInvalidArgument  = service.CodeInvalidArgument
	CodeNotFound         = service.CodeNotFound
	CodeQueueFull        = service.CodeQueueFull
	CodeAdmissionDenied  = service.CodeAdmissionDenied
	CodeDraining         = service.CodeDraining
	CodeInternal         = service.CodeInternal
	CodeMethodNotAllowed = service.CodeMethodNotAllowed
	CodeNotReady         = service.CodeNotReady
	CodeUnavailable      = service.CodeUnavailable
	CodeConflict         = service.CodeConflict
)

// Defaults.
const (
	// DefaultBackoff is the retry sleep when a retryable rejection
	// carries no Retry-After hint (pre-envelope daemons, 502s).
	DefaultBackoff = 5 * time.Millisecond
	// DefaultPoll is WaitDrained's /metrics polling period.
	DefaultPoll = 50 * time.Millisecond
)

// Error is a non-2xx /v1 answer: the envelope's machine-readable code,
// reason and retry hint, plus the accepted prefix of a partially
// accepted batch. A response that was not envelope-shaped keeps Code
// empty and the raw body in Message.
type Error struct {
	// Status is the HTTP status code.
	Status int
	// Code is the envelope's machine-readable error code ("" when the
	// response carried no envelope).
	Code string
	// Message is the envelope's human-readable message, or the raw body.
	Message string
	// Reason refines an admission_denied 429 (e.g. "rate_limited",
	// "tenant_over_weight").
	Reason string
	// RetryAfter is the server's backoff hint: the envelope's precise
	// retry_after_ms when present, else the Retry-After header.
	RetryAfter time.Duration
	// Accepted holds the IDs of the accepted prefix when a batch was
	// cut off mid-trace; Rejected counts the refused tail.
	Accepted []dollymp.JobID
	Rejected int
}

func (e *Error) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("status %d (no error envelope): %s", e.Status, e.Message)
	}
	if e.Reason != "" {
		return fmt.Sprintf("status %d, code %s (%s): %s", e.Status, e.Code, e.Reason, e.Message)
	}
	return fmt.Sprintf("status %d, code %s: %s", e.Status, e.Code, e.Message)
}

// Retryable reports whether the rejection is about NOW rather than
// about the request: backpressure, an admission denial, a gateway
// between members — or a bare 429 from a pre-envelope daemon.
func (e *Error) Retryable() bool {
	switch e.Code {
	case CodeQueueFull, CodeAdmissionDenied, CodeUnavailable:
		return true
	case "":
		return e.Status == http.StatusTooManyRequests
	}
	return false
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (the default has a 30s
// timeout).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithBackoff sets the retry sleep used when the server provides no
// Retry-After hint; d <= 0 keeps the default.
func WithBackoff(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.backoff = d
		}
	}
}

// Client talks to one dollymp deployment. It is safe for concurrent
// use; the retry counter is shared across goroutines.
type Client struct {
	base    string
	hc      *http.Client
	backoff time.Duration

	retries atomic.Int64
}

// New builds a client for the deployment at baseURL (trailing slash
// tolerated). No request is made until the first call.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{Timeout: 30 * time.Second},
		backoff: DefaultBackoff,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the deployment URL the client was built with.
func (c *Client) BaseURL() string { return c.base }

// Retries returns how many retryable rejections (queue_full,
// admission_denied, unavailable) the client has absorbed so far.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Submit submits one job and returns its service-assigned ID, retrying
// backpressure and admission denials until ctx expires.
func (c *Client) Submit(ctx context.Context, j *dollymp.Job) (dollymp.JobID, error) {
	ids, err := c.SubmitBatch(ctx, []*dollymp.Job{j})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// SubmitBatch submits jobs in one POST (a single job as raw JSON, more
// as a v1 trace body) and returns the service-assigned IDs in
// submission order. Retryable rejections back off by the server's
// Retry-After hint and resubmit; a batch cut off mid-trace resubmits
// only the rejected tail — the envelope's accepted IDs say how far the
// daemon got, and resubmitting those jobs would duplicate them. The
// returned IDs include partial progress even on error.
func (c *Client) SubmitBatch(ctx context.Context, jobs []*dollymp.Job) ([]dollymp.JobID, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("client: empty batch")
	}
	var ids []dollymp.JobID
	pending := jobs
	for {
		body, err := encodeBatch(pending)
		if err != nil {
			return ids, err
		}
		resp, err := c.post(ctx, c.base+"/v1/jobs", body)
		if err != nil {
			return ids, err
		}
		out, rerr := readBody(resp)
		if rerr != nil {
			return ids, rerr
		}
		if resp.StatusCode == http.StatusAccepted {
			var sr struct {
				IDs []dollymp.JobID `json:"ids"`
			}
			if err := json.Unmarshal(out, &sr); err != nil {
				return ids, fmt.Errorf("client: decode submit response: %w", err)
			}
			return append(ids, sr.IDs...), nil
		}
		apiErr := decodeError(resp, out)
		if !apiErr.Retryable() {
			return ids, apiErr
		}
		if n := len(apiErr.Accepted); n > 0 && n < len(pending) {
			ids = append(ids, apiErr.Accepted...)
			pending = pending[n:]
		}
		c.retries.Add(1)
		if err := sleep(ctx, c.backoffFor(apiErr)); err != nil {
			return ids, fmt.Errorf("%w (last rejection: %v)", err, apiErr)
		}
	}
}

// backoffFor prefers the server's hint over the client default.
func (c *Client) backoffFor(e *Error) time.Duration {
	if e.RetryAfter > 0 {
		return e.RetryAfter
	}
	return c.backoff
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// encodeBatch renders a submission body: raw job JSON for one job, a
// v1 trace file for several (the endpoint accepts both).
func encodeBatch(jobs []*dollymp.Job) ([]byte, error) {
	if len(jobs) == 1 {
		return json.Marshal(jobs[0])
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, jobs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Job returns one job's lifecycle record; a missing ID is an *Error
// with CodeNotFound.
func (c *Client) Job(ctx context.Context, id dollymp.JobID) (dollymp.JobInfo, error) {
	var info dollymp.JobInfo
	err := c.getJSON(ctx, "/v1/jobs/"+strconv.FormatInt(int64(id), 10), &info)
	return info, err
}

// JobQuery filters and paginates Jobs.
type JobQuery struct {
	// State filters by lifecycle state (queued, admitted, running,
	// completed); empty matches all.
	State string
	// Tenant filters by the jobs' tenant label; empty matches all.
	Tenant string
	// Limit and Offset paginate (Limit 0 takes the server default).
	Limit  int
	Offset int
}

// JobList is one page of lifecycle records.
type JobList struct {
	Jobs []dollymp.JobInfo `json:"jobs"`
	// Total counts jobs matching the filter before pagination.
	Total  int `json:"total"`
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
}

// Jobs lists lifecycle records matching the query, sorted by ID.
func (c *Client) Jobs(ctx context.Context, q JobQuery) (JobList, error) {
	v := url.Values{}
	if q.State != "" {
		v.Set("state", q.State)
	}
	if q.Tenant != "" {
		v.Set("tenant", q.Tenant)
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Offset > 0 {
		v.Set("offset", strconv.Itoa(q.Offset))
	}
	path := "/v1/jobs"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	var list JobList
	err := c.getJSON(ctx, path, &list)
	return list, err
}

// Shards returns the per-shard status table — federated across members
// when the base URL is a gateway.
func (c *Client) Shards(ctx context.Context) ([]dollymp.ShardStatus, error) {
	var sr struct {
		Shards []dollymp.ShardStatus `json:"shards"`
	}
	err := c.getJSON(ctx, "/v1/shards", &sr)
	return sr.Shards, err
}

// Cluster returns the aggregated cluster/queue snapshot.
func (c *Client) Cluster(ctx context.Context) (dollymp.ClusterSnapshot, error) {
	var snap dollymp.ClusterSnapshot
	err := c.getJSON(ctx, "/v1/cluster", &snap)
	return snap, err
}

// Admission returns the edge-admission view: active policy and
// decision accounting, federated across every decision point.
func (c *Client) Admission(ctx context.Context) (dollymp.AdmissionStatus, error) {
	var st dollymp.AdmissionStatus
	err := c.getJSON(ctx, "/v1/admission", &st)
	return st, err
}

// Ready reports whether the deployment is fully serving: nil on a 200
// /readyz, an *Error with the envelope's code otherwise.
func (c *Client) Ready(ctx context.Context) error {
	resp, err := c.get(ctx, c.base+"/readyz")
	if err != nil {
		return err
	}
	out, err := readBody(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp, out)
	}
	return nil
}

// --- plumbing ---

func (c *Client) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.hc.Do(req)
}

func (c *Client) post(ctx context.Context, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.hc.Do(req)
}

func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// getJSON GETs base+path and decodes a 200 into out; any other status
// becomes an *Error.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.get(ctx, c.base+path)
	if err != nil {
		return err
	}
	body, err := readBody(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil
}

// decodeError turns a non-2xx response into an *Error, preferring the
// envelope's precise retry_after_ms over the whole-second Retry-After
// header, and keeping the raw body when the response was not
// envelope-shaped.
func decodeError(resp *http.Response, body []byte) *Error {
	e := &Error{Status: resp.StatusCode}
	var er service.ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Error.Code != "" {
		e.Code = er.Error.Code
		e.Message = er.Error.Message
		e.Reason = er.Error.Reason
		e.Accepted = er.IDs
		e.Rejected = er.Rejected
		if er.Error.RetryAfterMS > 0 {
			e.RetryAfter = time.Duration(er.Error.RetryAfterMS) * time.Millisecond
		}
	} else {
		e.Message = string(bytes.TrimSpace(body))
	}
	if e.RetryAfter == 0 {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.ParseInt(ra, 10, 64); err == nil && secs > 0 {
				e.RetryAfter = time.Duration(secs) * time.Second
			}
		}
	}
	return e
}
