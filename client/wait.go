package client

// Completion waiting and metrics scraping: the e2e certification layer
// dollymp-load and scripts/smoke.sh run on. Every poll strictly parses
// the Prometheus exposition, so waiting doubles as a format regression
// test, and the final check cross-references counters against each
// other — completed against the JCT histogram, submitted against what
// was sent — rather than trusting any one number.

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"dollymp/internal/metrics"
)

// WaitConfig tells WaitDrained what "done" means.
type WaitConfig struct {
	// Jobs is how many completions to wait for.
	Jobs int64
	// MinSteals, when > 0, additionally requires the rebalancer's
	// migration counter to have reached it (the skewed smoke pass uses
	// this to prove stealing actually fired).
	MinSteals int64
	// MinReplayed, when > 0, additionally requires the journal replay
	// gauge to have reached it (the kill-and-restart pass uses this to
	// prove the daemon recovered from its journal, not started empty).
	MinReplayed int64
	// Poll is the scrape period (0 takes DefaultPoll).
	Poll time.Duration
}

// WaitStats is what the deployment's counters said when WaitDrained
// returned.
type WaitStats struct {
	Completed int64
	Submitted int64
	Stolen    int64
	Replayed  int64
	Denied    int64
}

// WaitDrained polls /metrics until the completed counter reaches
// cfg.Jobs, then cross-checks the scrape: the JCT histogram count must
// equal the completed counter, the submitted counter must cover every
// job sent, and the optional steal/replay floors must hold. The ctx
// deadline is the overall timeout.
func (c *Client) WaitDrained(ctx context.Context, cfg WaitConfig) (WaitStats, error) {
	poll := cfg.Poll
	if poll <= 0 {
		poll = DefaultPoll
	}
	var st WaitStats
	for {
		sums, err := c.MetricSums(ctx)
		if err != nil {
			return st, err
		}
		st = WaitStats{
			Completed: int64(sums["dollymp_jobs_completed_total"]),
			Submitted: int64(sums["dollymp_jobs_submitted_total"]),
			Stolen:    int64(sums["dollymp_router_jobs_stolen_total"]),
			Replayed:  int64(sums["dollymp_journal_replayed_jobs"]),
			Denied:    int64(sums["dollymp_jobs_denied_total"]),
		}
		if st.Completed >= cfg.Jobs {
			if got := int64(sums["dollymp_job_completion_slots_count"]); got != st.Completed {
				return st, fmt.Errorf("JCT histogram has %d observations, completed counter says %d", got, st.Completed)
			}
			if st.Submitted < cfg.Jobs {
				return st, fmt.Errorf("submitted counter %d < %d jobs sent", st.Submitted, cfg.Jobs)
			}
			if cfg.MinSteals > 0 && st.Stolen < cfg.MinSteals {
				return st, fmt.Errorf("rebalancer migrated %d jobs, want >= %d", st.Stolen, cfg.MinSteals)
			}
			if cfg.MinReplayed > 0 && st.Replayed < cfg.MinReplayed {
				return st, fmt.Errorf("journal replayed %d jobs, want >= %d", st.Replayed, cfg.MinReplayed)
			}
			return st, nil
		}
		if err := sleep(ctx, poll); err != nil {
			return st, fmt.Errorf("%d of %d jobs completed: %w", st.Completed, cfg.Jobs, err)
		}
	}
}

// MetricSums fetches and strictly parses the Prometheus exposition,
// collapsing labelled series into per-family totals: a sharded daemon
// exposes dollymp_jobs_completed_total{shard="k"} per shard, and
// callers care about the deployment-wide sum. A parse error fails the
// call, making every poll a format regression test.
func (c *Client) MetricSums(ctx context.Context) (map[string]float64, error) {
	resp, err := c.do(ctx, http.MethodGet, c.base+"/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	samples, err := metrics.ParsePromText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("/metrics output invalid: %w", err)
	}
	sums := make(map[string]float64)
	for _, s := range samples {
		sums[s.Name] += s.Value
	}
	return sums, nil
}
