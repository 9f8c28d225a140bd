// Command dollymp-bench regenerates every table and figure of the
// paper's evaluation and writes them as text tables — the series behind
// EXPERIMENTS.md — or as JSON for downstream plotting. It also hosts the
// parallel multi-seed sweep harness that produces BENCH_sweep.json, the
// deterministic quality grid later PRs measure against. Throughput and
// memory are not measured here: the repo benchmark (bench/) judges
// them, `make profile-engine` profiles them, and trace-scale replay is
// dollymp-sim -trace on a dollymp-trace -format stream file.
//
// Usage:
//
//	dollymp-bench                 # run everything at quick scale
//	dollymp-bench -scale paper    # evaluation-scale job counts
//	dollymp-bench -fig 8          # one figure only
//	dollymp-bench -format json    # machine-readable results
//
//	dollymp-bench -sweep          # 3 schedulers × 8 seeds → BENCH_sweep.json
//	dollymp-bench -sweep -sweep-schedulers capacity,tetris,drf,dollymp2 \
//	    -sweep-seeds 16 -sweep-loads 0.25,0.5,1 -workers 8 \
//	    -cpuprofile cpu.pprof -o BENCH_sweep.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dollymp/internal/experiments"
	"dollymp/internal/sched/builtin"
)

// scales names the two sizes -scale takes.
var scales = map[string]func() experiments.Scale{"quick": experiments.Quick, "paper": experiments.Paper}

func main() {
	ids := make([]string, len(experiments.All))
	for i, e := range experiments.All {
		ids[i] = fmt.Sprintf("%s (%s)", e.ID, e.Section)
	}
	var (
		scaleName = flag.String("scale", "quick", "quick or paper")
		fig       = flag.String("fig", "", "run one experiment, or every id under a group prefix such as 5-7: "+strings.Join(ids, ", "))
		format    = flag.String("format", "text", "text or json")

		sweepMode = flag.Bool("sweep", false, "run the (scheduler × seed × load) sweep grid instead of figures")
		opts      sweepOptions
	)
	flag.StringVar(&opts.schedulers, "sweep-schedulers", "", "comma-separated scheduler names for -sweep (default capacity,tetris,dollymp2): "+strings.Join(builtin.Names(), ", "))
	flag.IntVar(&opts.seeds, "sweep-seeds", 0, "number of replication seeds for -sweep (default 8)")
	flag.Uint64Var(&opts.seedBase, "sweep-seed-base", 0, "first seed of the replication range (default: scale seed)")
	flag.StringVar(&opts.loads, "sweep-loads", "", "comma-separated target arrival loads for -sweep (default 0.5)")
	flag.IntVar(&opts.jobs, "sweep-jobs", 0, "jobs per cell for -sweep (default: scale job count)")
	flag.IntVar(&opts.fleet, "sweep-fleet", 0, "servers per cell for -sweep (default: scale fleet)")
	flag.IntVar(&opts.workers, "workers", 0, "concurrent sweep cells (0 = GOMAXPROCS)")
	flag.StringVar(&opts.out, "o", "BENCH_sweep.json", "sweep JSON output path (- for stdout)")
	flag.StringVar(&opts.cpuprofile, "cpuprofile", "", "write a CPU profile of the sweep to this file")
	flag.StringVar(&opts.memprofile, "memprofile", "", "write a heap profile after the sweep to this file")
	flag.Parse()

	var err error
	if *sweepMode {
		opts.scale = *scaleName
		err = runSweepMode(opts, os.Stdout)
	} else {
		err = realMain(*scaleName, *fig, *format, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dollymp-bench:", err)
		os.Exit(1)
	}
}

func realMain(scaleName, fig, format string, out io.Writer) error {
	scale, ok := scales[scaleName]
	if !ok {
		return fmt.Errorf("unknown -scale %q", scaleName)
	}
	if format != "text" && format != "json" {
		return fmt.Errorf("unknown -format %q", format)
	}

	jsonOut := make(map[string]interface{})
	ran := 0
	for _, e := range experiments.All {
		if fig != "" && e.ID != fig && !strings.HasPrefix(e.ID, fig+"/") {
			continue
		}
		res, err := e.Run(scale())
		if err != nil {
			return fmt.Errorf("figure %s: %w", e.ID, err)
		}
		ran++
		if format == "json" {
			jsonOut[e.ID] = res
			continue
		}
		if _, err := fmt.Fprintf(out, "=== Figure %s — %s ===\n", e.ID, e.Desc); err != nil {
			return err
		}
		if err := res.Write(out); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out); err != nil {
			return err
		}
	}
	if ran == 0 {
		return fmt.Errorf("no figure matches -fig %q", fig)
	}
	if format == "json" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonOut)
	}
	return nil
}
