// Package admission implements pluggable edge admission control: a
// policy decides, before a job reaches any admission queue, whether the
// deployment should take it at all. Queue backpressure (429 queue_full)
// is the last line of defense — it fires when a queue is physically
// full; admission policies are the first line — they shape WHICH work
// gets queue space while the system still has room to choose, so heavy
// traffic degrades by policy (rate limits, per-tenant fairness) instead
// of by a 429 storm racing for the last slots.
//
// The split mirrors the policy/snapshot decomposition of
// inference-serving control planes: the policy is a pure decision
// function over (job, snapshot), and the snapshot comes from whoever
// owns the queues — a shard router summing its shards' queue depths, or
// a federation gateway with no queue at all — read at decision time.
// Policies never reach back into the scheduler: everything they may
// consult is in the Snapshot.
//
// Two policies ship: TokenBucket (aggregate rate limiting) and
// WeightedFair (per-tenant weighted fair admission under pressure).
// Both are safe for concurrent use and O(1) per decision.
package admission

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dollymp/internal/workload"
)

// Snapshot is the pressure view a policy decides on. Both fields are
// deployment-wide from the decision point's perspective: a shard router
// sums its shards, a gateway reports what it knows (nothing — see
// QueueCap).
type Snapshot struct {
	// QueueDepth is the number of jobs waiting in admission queues.
	QueueDepth int
	// QueueCap is the total admission-queue capacity. 0 means unknown
	// (a stateless gateway has no queue of its own); policies that gate
	// on fullness must treat unknown capacity as "always under
	// pressure" — the conservative reading at the outermost edge.
	QueueCap int
}

// Decision is a policy's verdict on one job.
type Decision struct {
	// Admit accepts the job into the admission queue path.
	Admit bool
	// Reason is the machine-readable denial reason (one of the Reason*
	// constants); empty on admit. It travels to clients in the error
	// envelope so retry behavior can branch on it.
	Reason string
	// RetryAfter is the server's hint for when a denied submission is
	// worth retrying; zero means "immediately".
	RetryAfter time.Duration
}

// Denial reasons carried in Decision.Reason (and the HTTP envelope).
const (
	// ReasonRateLimited: the aggregate intake rate exceeded the token
	// bucket.
	ReasonRateLimited = "rate_limited"
	// ReasonOverWeight: the tenant is ahead of its weighted fair share
	// while the deployment is under pressure.
	ReasonOverWeight = "tenant_over_weight"
)

// Policy decides job admission at the edge. Admit must be safe for
// concurrent use and cheap — it sits on the submission hot path, once
// per job per submission attempt (a client retry is a fresh attempt).
// The context is the submission's; policies may honor its deadline but
// must not block on it.
type Policy interface {
	// Name identifies the policy ("token-bucket", "fair") in status
	// surfaces and logs.
	Name() string
	// Admit decides one job against the current pressure snapshot.
	Admit(ctx context.Context, job *workload.Job, snap Snapshot) Decision
	// Stats reports cumulative decision accounting for /v1/admission.
	Stats() Stats
}

// TenantStats is one tenant's slice of a fair policy's accounting.
type TenantStats struct {
	Admitted int64   `json:"admitted"`
	Denied   int64   `json:"denied"`
	Weight   float64 `json:"weight"`
}

// Stats is a policy's cumulative decision accounting.
type Stats struct {
	Policy   string `json:"policy"`
	Admitted int64  `json:"admitted"`
	Denied   int64  `json:"denied"`
	// Tenants breaks decisions down per tenant; nil for tenant-blind
	// policies (token bucket).
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// ParseWeights parses a per-tenant weight list of the form
// "a=3,b=1.5": comma-separated tenant=weight pairs, weights positive.
// The empty string yields an empty (non-nil) map — every tenant at the
// default weight.
func ParseWeights(s string) (map[string]float64, error) {
	out := make(map[string]float64)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("admission: weight %q is not tenant=weight", pair)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || !(w > 0) {
			return nil, fmt.Errorf("admission: tenant %q has invalid weight %q", name, val)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("admission: duplicate tenant %q", name)
		}
		out[name] = w
	}
	return out, nil
}

// FormatWeights renders a weight map in ParseWeights form, tenants
// sorted, for logs and status lines.
func FormatWeights(w map[string]float64) string {
	names := make([]string, 0, len(w))
	for name := range w {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%g", name, w[name])
	}
	return strings.Join(parts, ",")
}
