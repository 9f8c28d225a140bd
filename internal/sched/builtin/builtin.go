// Package builtin is the one table of built-in scheduler names: every
// entry point that turns a string into a policy — the public facade's
// NewScheduler (and through it the -scheduler flag of each binary) and
// the experiment sweep's scheduler axis — resolves through it, so they
// accept the same names and build the same paper-default parameters
// (r = 1.5, δ = 0.3).
package builtin

import (
	"dollymp/internal/core"
	"dollymp/internal/sched"
	"dollymp/internal/sched/capacity"
	"dollymp/internal/sched/carbyne"
	"dollymp/internal/sched/drf"
	"dollymp/internal/sched/random"
	"dollymp/internal/sched/srpt"
	"dollymp/internal/sched/svf"
	"dollymp/internal/sched/tetris"
	"dollymp/internal/yarn"
)

// table is in presentation order. A constructor takes a seed so a
// stochastic policy stays deterministic per caller; the others ignore
// it.
var table = []struct {
	name string
	new  func(seed uint64) sched.Scheduler
}{
	{"dollymp0", dolly(0)},
	{"dollymp1", dolly(1)},
	{"dollymp2", dolly(2)},
	{"dollymp3", dolly(3)},
	{"yarn-dollymp2", func(uint64) sched.Scheduler { return yarn.New() }},
	{"capacity", func(uint64) sched.Scheduler { return capacity.Default() }},
	{"drf", func(uint64) sched.Scheduler { return &drf.Scheduler{} }},
	{"tetris", func(uint64) sched.Scheduler { return &tetris.Scheduler{R: 1.5} }},
	{"carbyne", func(uint64) sched.Scheduler { return &carbyne.Scheduler{R: 1.5} }},
	{"srpt", func(uint64) sched.Scheduler { return &srpt.Scheduler{R: 1.5} }},
	{"svf", func(uint64) sched.Scheduler { return &svf.Scheduler{R: 1.5} }},
	{"random", func(seed uint64) sched.Scheduler { return random.New(seed) }},
}

// dolly builds the DollyMP^k constructor: at most k clones per task.
func dolly(k int) func(uint64) sched.Scheduler {
	return func(uint64) sched.Scheduler { return core.MustNew(core.WithClones(k)) }
}

// Names lists every built-in scheduler name, in presentation order.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// Lookup returns the constructor of the named scheduler; each call of
// it builds a fresh instance.
func Lookup(name string) (func(seed uint64) sched.Scheduler, bool) {
	for _, e := range table {
		if e.name == name {
			return e.new, true
		}
	}
	return nil, false
}
