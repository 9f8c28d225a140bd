package client

// The error-surface probe: every /v1 failure must be the uniform
// envelope {"error":{"code","message"}} with the right machine-readable
// code, on a plain daemon, a sharded router, and the federation
// gateway alike. scripts/smoke.sh runs this (via dollymp-load -probe)
// instead of hand-rolled curl checks.

import (
	"context"
	"fmt"
	"net/http"
	"strings"
)

// ProbeReport summarizes a successful probe.
type ProbeReport struct {
	// EnvelopeChecks counts the error surfaces verified envelope-shaped.
	EnvelopeChecks int
	// Shards is how many shards /v1/shards reported.
	Shards int
	// AdmissionPolicy is the policy /v1/admission reported ("none"
	// when no edge admission is configured).
	AdmissionPolicy string
}

// Probe exercises the deployment's error surface and topology
// endpoints: malformed submissions, missing jobs, bad filters, unknown
// routes and wrong methods must all answer the uniform envelope with
// the right code; /readyz must serve 200; /v1/jobs must paginate;
// /v1/shards must report a coherent topology (exactly expectShards
// entries when expectShards > 0); and /v1/admission must report the
// policy view with a deterministic 405 on writes.
func (c *Client) Probe(ctx context.Context, expectShards int) (ProbeReport, error) {
	var rep ProbeReport
	expectEnvelope := func(desc string, resp *http.Response, err error, wantStatus int, wantCode string) (*http.Response, error) {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", desc, err)
		}
		out, err := readBody(resp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", desc, err)
		}
		if resp.StatusCode != wantStatus {
			return nil, fmt.Errorf("%s: status %d, want %d (%s)", desc, resp.StatusCode, wantStatus, strings.TrimSpace(string(out)))
		}
		e := decodeError(resp, out)
		if e.Code == "" {
			return nil, fmt.Errorf("%s: response is not envelope-shaped: %s", desc, strings.TrimSpace(string(out)))
		}
		if e.Code != wantCode {
			return nil, fmt.Errorf("%s: code %q, want %q", desc, e.Code, wantCode)
		}
		if e.Message == "" {
			return nil, fmt.Errorf("%s: envelope without message", desc)
		}
		rep.EnvelopeChecks++
		return resp, nil
	}

	resp, err := c.post(ctx, c.base+"/v1/jobs", []byte("not json"))
	if _, err := expectEnvelope("malformed submit", resp, err, http.StatusBadRequest, CodeInvalidArgument); err != nil {
		return rep, err
	}
	resp, err = c.do(ctx, http.MethodGet, c.base+"/v1/jobs/999999999")
	if _, err := expectEnvelope("missing job", resp, err, http.StatusNotFound, CodeNotFound); err != nil {
		return rep, err
	}
	resp, err = c.do(ctx, http.MethodGet, c.base+"/v1/jobs/xyzzy")
	if _, err := expectEnvelope("malformed job id", resp, err, http.StatusBadRequest, CodeInvalidArgument); err != nil {
		return rep, err
	}
	resp, err = c.do(ctx, http.MethodGet, c.base+"/v1/jobs?state=bogus")
	if _, err := expectEnvelope("bad state filter", resp, err, http.StatusBadRequest, CodeInvalidArgument); err != nil {
		return rep, err
	}
	resp, err = c.do(ctx, http.MethodGet, c.base+"/v2/nope")
	if _, err := expectEnvelope("unknown route", resp, err, http.StatusNotFound, CodeNotFound); err != nil {
		return rep, err
	}
	resp, err = c.do(ctx, http.MethodDelete, c.base+"/v1/jobs")
	resp, err = expectEnvelope("method mismatch", resp, err, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	if err != nil {
		return rep, err
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, http.MethodPost) {
		return rep, fmt.Errorf("method mismatch: Allow %q does not offer POST", allow)
	}

	// The admission view must answer on every deployment shape — policy
	// or not — and its write-rejection must carry a deterministic Allow
	// (MuxFor sorts it, so gateway and member answer byte-identically).
	resp, err = c.do(ctx, http.MethodDelete, c.base+"/v1/admission")
	resp, err = expectEnvelope("admission method mismatch", resp, err, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	if err != nil {
		return rep, err
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
		return rep, fmt.Errorf("admission method mismatch: Allow %q, want %q", allow, http.MethodGet)
	}
	adm, err := c.Admission(ctx)
	if err != nil {
		return rep, fmt.Errorf("admission view: %w", err)
	}
	if adm.Policy == "" {
		return rep, fmt.Errorf("admission view: empty policy name")
	}
	rep.AdmissionPolicy = adm.Policy

	// Readiness: a serving daemon — or a gateway whose live members are
	// all serving — answers /readyz 200 once replay and loops are up.
	if err := c.Ready(ctx); err != nil {
		return rep, fmt.Errorf("readyz: %w", err)
	}

	// The happy-path list must paginate.
	var list JobList
	if err := c.getJSON(ctx, "/v1/jobs?limit=1", &list); err != nil || list.Limit != 1 {
		return rep, fmt.Errorf("list jobs: limit %d, err %v", list.Limit, err)
	}

	shards, err := c.Shards(ctx)
	if err != nil {
		return rep, fmt.Errorf("shards: %w", err)
	}
	if len(shards) == 0 {
		return rep, fmt.Errorf("shards: empty topology")
	}
	if expectShards > 0 && len(shards) != expectShards {
		return rep, fmt.Errorf("shards: daemon reports %d, want %d", len(shards), expectShards)
	}
	for i, st := range shards {
		if st.Shard != i {
			return rep, fmt.Errorf("shards: entry %d reports index %d", i, st.Shard)
		}
	}
	rep.Shards = len(shards)
	return rep, nil
}
