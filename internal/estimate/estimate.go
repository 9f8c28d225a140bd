// Package estimate implements the Application Master's task-statistics
// estimation of §5.2. The paper's AM never knows true task durations; it
// estimates the mean and standard deviation of each phase from, in
// order of preference:
//
//  1. the measured statistics of the first few tasks of the same phase
//     in the current job (once enough complete),
//  2. prior runs of recurring jobs — the same application and phase
//     name seen in earlier jobs,
//  3. all prior jobs from the same application framework,
//  4. a configured prior (the "container request" fallback: the job
//     supplies a demand but no duration knowledge).
//
// An Estimator is owned by one scheduler instance and confined to the
// simulator's goroutine.
package estimate

import (
	"dollymp/internal/stats"
)

// Key identifies a recurring phase class: the application name plus the
// phase name ("wordcount"/"map").
type Key struct {
	App   string
	Phase string
}

// Estimate is a duration estimate with its provenance.
type Estimate struct {
	Mean   float64
	SD     float64
	Source Source
}

// Source says which §5.2 rule produced an estimate.
type Source int

// Estimation sources, best first.
const (
	// FromCurrentPhase uses completed tasks of the same phase in the
	// same job.
	FromCurrentPhase Source = iota
	// FromRecurring uses prior jobs with the same app and phase name.
	FromRecurring
	// FromFramework uses all prior jobs of the same application.
	FromFramework
	// FromPrior is the configured fallback.
	FromPrior
)

// String names the source.
func (s Source) String() string {
	switch s {
	case FromCurrentPhase:
		return "current-phase"
	case FromRecurring:
		return "recurring-job"
	case FromFramework:
		return "framework"
	default:
		return "prior"
	}
}

// Config tunes the estimator.
type Config struct {
	// MinSamples is how many completed tasks the current phase needs
	// before its own statistics are trusted (default 3, matching the
	// speculation threshold's sampling concern).
	MinSamples int
	// PriorMean and PriorSD are the rule-4 fallback (defaults 10, 5 —
	// "a typical small task" at 5-second slots). Zero or negative
	// values select the defaults.
	PriorMean float64
	PriorSD   float64
}

func (c *Config) defaults() {
	if c.MinSamples <= 0 {
		c.MinSamples = 3
	}
	if c.PriorMean <= 0 {
		c.PriorMean = 10
	}
	if c.PriorSD <= 0 {
		c.PriorSD = 5
	}
}

// Estimator accumulates duration observations across jobs.
type Estimator struct {
	cfg       Config
	byPhase   map[Key]*stats.Summary
	byApp     map[string]*stats.Summary
	observedN map[Key]int
	// sdHints keeps the largest reported per-phase standard deviation;
	// the batch-mean summaries above underestimate spread, and the
	// variance penalty must not collapse spuriously.
	sdHints map[Key]float64
}

// New builds an estimator.
func New(cfg Config) *Estimator {
	cfg.defaults()
	return &Estimator{
		cfg:       cfg,
		byPhase:   make(map[Key]*stats.Summary),
		byApp:     make(map[string]*stats.Summary),
		observedN: make(map[Key]int),
		sdHints:   make(map[Key]float64),
	}
}

// Record ingests the current observed statistics of a phase (mean, sd
// over n completed tasks). The estimator folds only the *new* samples
// into its history, so repeated polling of the same statistics is safe.
// Observations persist after the job completes — that is what makes
// recurring-job estimation work.
func (e *Estimator) Record(key Key, mean, sd float64, n int) {
	seen := e.observedN[key]
	if n <= seen {
		return
	}
	// Fold the increment in as (n − seen) samples at the current mean.
	// The running summaries are approximate (they see batch means, not
	// raw samples), which mirrors what an AM aggregating counters from
	// task reports actually has.
	ph := e.byPhase[key]
	if ph == nil {
		ph = &stats.Summary{}
		e.byPhase[key] = ph
	}
	app := e.byApp[key.App]
	if app == nil {
		app = &stats.Summary{}
		e.byApp[key.App] = app
	}
	for i := seen; i < n; i++ {
		ph.Add(mean)
		app.Add(mean)
	}
	// Track spread via the reported sd: keep the max seen so the
	// variance penalty never collapses spuriously.
	e.observedN[key] = n
	if sd > e.sdHint(key) {
		e.setSDHint(key, sd)
	}
}

func (e *Estimator) sdHint(key Key) float64 { return e.sdHints[key] }

func (e *Estimator) setSDHint(key Key, sd float64) { e.sdHints[key] = sd }

// Estimate produces the phase's duration estimate per the §5.2
// preference order. currentMean/currentSD/currentN are the live
// statistics of the phase in the running job (from the RM's reports).
func (e *Estimator) Estimate(key Key, currentMean, currentSD float64, currentN int) Estimate {
	if currentN >= e.cfg.MinSamples {
		return Estimate{Mean: currentMean, SD: currentSD, Source: FromCurrentPhase}
	}
	if ph := e.byPhase[key]; ph != nil && ph.N() >= e.cfg.MinSamples {
		return Estimate{Mean: ph.Mean(), SD: e.sdHint(key), Source: FromRecurring}
	}
	if app := e.byApp[key.App]; app != nil && app.N() >= e.cfg.MinSamples {
		return Estimate{Mean: app.Mean(), SD: app.SD() + e.maxAppSD(key.App), Source: FromFramework}
	}
	return Estimate{Mean: e.cfg.PriorMean, SD: e.cfg.PriorSD, Source: FromPrior}
}

func (e *Estimator) maxAppSD(app string) float64 {
	best := 0.0
	for k, h := range e.sdHints {
		if k.App == app && h > best {
			best = h
		}
	}
	return best
}

// ObservedSamples returns the dedup watermark for a phase class: the
// highest sample count a Record call has folded for it. Tests use it to
// pin the exactly-once folding contract.
func (e *Estimator) ObservedSamples(key Key) int { return e.observedN[key] }

// HistorySamples returns how many samples the phase class's history
// summary holds.
func (e *Estimator) HistorySamples(key Key) int {
	if ph := e.byPhase[key]; ph != nil {
		return ph.N()
	}
	return 0
}
