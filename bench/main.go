// Command bench is the repository's benchmark: four workloads that
// separate scan-bound, backlog-bound, stream-bound and durable-intake
// cost, measured end to end with the decorators off and, with -trace 1,
// once more layer by layer. See README.md beside this file.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// childEnv marks a re-exec'd child that runs exactly one repetition and
// prints its repResult as JSON. Each repetition gets a process of its
// own so peak_rss_mb and set-up are measured per repetition.
const childEnv = "DOLLYMP_PERFBENCH_CHILD"

// Each repetition sets its workload up several times and reports the
// median: at least minSetups times, then until setupBudget is spent or
// maxSetups is reached, so that the millisecond set-ups get more samples.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 500 * time.Millisecond
)

// options are the flags shared by parent and child.
type options struct {
	workload string
	seed     uint64
	reps     int
	seconds  float64
	trace    bool
	scale    scale
	out      string
}

// childOptions is what a workload's set-up needs.
type childOptions struct {
	seed  uint64
	scale scale
	// tmp holds the repetition's scratch files and is removed when the
	// repetition ends.
	tmp string
}

// repResult is one repetition as the child reports it.
type repResult struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// WallS is the timed phase.
	WallS   float64            `json:"wall_s"`
	Metrics map[string]float64 `json:"metrics"`
	// Problems lists failed output checks: any entry makes the whole run
	// invalid rather than slow.
	Problems []string `json:"problems,omitempty"`
}

func (r *repResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var scaleName string
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "", "run only this workload and end with the driver's one-line JSON result")
	fs.Uint64Var(&o.seed, "seed", 42, "workload seed: selects the generated jobs")
	fs.IntVar(&o.reps, "reps", 0, "repetitions per workload (default 5, or 1 when -seconds is set)")
	fs.Float64Var(&o.seconds, "seconds", 0, "keep repeating until the timed phases add up to this long")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced repetition per workload and reports the per-layer metrics")
	fs.StringVar(&scaleName, "scale", "full", "full, or smoke (every job count / 50, for tests)")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for results.json, span files and scratch files")
	fs.BoolVar(&compare, "compare", false, "compare two results.json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two results.json paths")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	for _, s := range scales {
		if s.name == scaleName {
			o.scale = s
		}
	}
	if o.scale.div == 0 {
		return fmt.Errorf("unknown -scale %q (full or smoke)", scaleName)
	}
	if o.reps == 0 {
		o.reps = 5
		if o.seconds > 0 {
			o.reps = 1
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}

	if os.Getenv(childEnv) != "" {
		return runChild(o, stdout)
	}

	specs := workloadSpecs
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown -workload %q", o.workload)
		}
		specs = []workloadSpec{*w}
	}
	results := newResultsFile(o)
	for i := range specs {
		wr, err := runWorkload(&specs[i], o, stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", specs[i].name, err)
		}
		results.Workloads = append(results.Workloads, wr)
		wr.print(stdout, o.trace)
	}
	if err := results.write(filepath.Join(o.out, "results.json")); err != nil {
		return err
	}
	if o.workload != "" {
		if err := results.Workloads[0].driverLine(stdout, o.trace); err != nil {
			return err
		}
	}
	for _, wr := range results.Workloads {
		if len(wr.Problems) > 0 {
			return fmt.Errorf("%s: %d failed output check(s), first: %s", wr.Name, len(wr.Problems), wr.Problems[0])
		}
	}
	return nil
}

// runChild runs one repetition of o.workload in this process.
func runChild(o options, stdout io.Writer) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown -workload %q", o.workload)
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	co := childOptions{seed: o.seed, scale: o.scale, tmp: tmp}
	var rec *recorder
	if o.trace {
		rec = newRecorder(w.perCall)
	}
	// Only the last instance set up is driven.
	var rep *repResult
	var setups []float64
	var spent time.Duration
	for rep == nil {
		start := time.Now()
		inst, err := w.setup(w, co, rec)
		if err != nil {
			return err
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
		if k := len(setups); k == maxSetups || k >= minSetups && spent >= setupBudget {
			// Collect set-up garbage now, outside both stopwatches, so the
			// timed phase does not pay for it: a forced collection takes
			// 1 to 9 ms depending on where the collector's cycle stands.
			runtime.GC()
			if rep, err = inst.run(); err != nil {
				inst.close()
				return err
			}
		}
		if err := inst.close(); err != nil {
			return err
		}
	}
	rep.Metrics["setup_s"] = summarize("s", setups).Median
	if mb, ok := peakRSSMB(); ok {
		rep.Metrics["peak_rss_mb"] = mb
	}
	if rec != nil {
		rep.Metrics["bench.decorator_cost_share"] = rec.calls() * recordedCallCost() / rep.WallS
		if err := rec.write(filepath.Join(o.out, "trace-"+w.name+".json"), w.name, o.seed); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// spawn re-execs this binary for one repetition and decodes its report.
// The child's stderr passes through; Run waits until it has ended.
func spawn(w *workloadSpec, o options, traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-scale", o.scale.name, "-trace", trace, "-out", o.out)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("repetition subprocess: %w", err)
	}
	var rep repResult
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("repetition subprocess report: %w", err)
	}
	return &rep, nil
}

// runWorkload runs the untraced repetitions one after another, then the
// traced one if asked, and folds them into one result. The traced
// repetition counts towards -seconds: its time is taken to be that of
// the untraced one before it.
func runWorkload(w *workloadSpec, o options, progress io.Writer) (*workloadResult, error) {
	var untraced []*repResult
	var timed, reserve float64
	for len(untraced) < o.reps || timed+reserve < o.seconds {
		rep, err := spawn(w, o, false)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, rep)
		timed += rep.WallS
		if o.trace {
			reserve = rep.WallS
		}
		fmt.Fprintf(progress, "%s rep %d: %.2fs timed, %.0f jobs/s\n", w.name, len(untraced), rep.WallS, rep.Metrics["jobs_per_s"])
	}
	var traced *repResult
	if o.trace {
		var err error
		if traced, err = spawn(w, o, true); err != nil {
			return nil, err
		}
		fmt.Fprintf(progress, "%s traced rep: %.2fs timed\n", w.name, traced.WallS)
	}
	return fold(w, untraced, traced), nil
}
