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
)

// writer is any figure result that can render itself as text; every
// result struct is also plain data, so -format json marshals it.
type writer interface {
	Write(io.Writer) error
}

type figure struct {
	id   string
	desc string
	run  func(experiments.Scale) (writer, error)
}

// group bundles several results under one figure id (the ablations).
type group []writer

// Write renders each member in order.
func (g group) Write(w io.Writer) error {
	for _, r := range g {
		if err := r.Write(w); err != nil {
			return err
		}
	}
	return nil
}

func figures() []figure {
	return []figure{
		{"1", "repeated WordCount, cloning efficiency", func(sc experiments.Scale) (writer, error) {
			cfg := experiments.DefaultFigure1()
			cfg.Seed = sc.Seed
			return experiments.Figure1(cfg)
		}},
		{"2", "three-job motivating example (§2)", func(experiments.Scale) (writer, error) {
			return experiments.Figure2(), nil
		}},
		{"4", "lightly loaded deployment (flowtime + running CDF)", func(sc experiments.Scale) (writer, error) {
			return experiments.Figure4(experiments.DefaultFigure4(sc))
		}},
		{"5-7/pagerank", "heavy-load PageRank (running/flowtime CDFs, cumulative)", func(sc experiments.Scale) (writer, error) {
			return experiments.HeavyLoad(experiments.DefaultHeavyLoad(sc, "pagerank"))
		}},
		{"5-7/wordcount", "heavy-load WordCount (running/flowtime CDFs, cumulative)", func(sc experiments.Scale) (writer, error) {
			return experiments.HeavyLoad(experiments.DefaultHeavyLoad(sc, "wordcount"))
		}},
		{"8", "trace-driven: speedup vs Tetris, resources vs DRF", func(sc experiments.Scale) (writer, error) {
			return experiments.Figure8(experiments.DefaultFigure8(sc))
		}},
		{"9", "clone-count sweep", func(sc experiments.Scale) (writer, error) {
			return experiments.Figure9(experiments.DefaultFigure9(sc))
		}},
		{"10", "cloning effect vs cluster load", func(sc experiments.Scale) (writer, error) {
			return experiments.Figure10(experiments.DefaultFigure10(sc))
		}},
		{"11", "DollyMP² vs Carbyne", func(sc experiments.Scale) (writer, error) {
			return experiments.Figure11(experiments.DefaultFigure11(sc))
		}},
		{"overhead", "scheduling overhead (§6.3.3)", func(sc experiments.Scale) (writer, error) {
			cfg := experiments.DefaultOverhead()
			if sc.JobFactor < 1 {
				cfg.Jobs, cfg.Servers = 200, 3000
			}
			return experiments.Overhead(cfg)
		}},
		{"ablations", "design-choice ablations (δ, r, Tetris ε)", func(sc experiments.Scale) (writer, error) {
			cb, err := experiments.AblationCloneBudget(sc, []float64{0, 0.05, 0.1, 0.3, 0.6, 1})
			if err != nil {
				return nil, err
			}
			vf, err := experiments.AblationVarianceFactor(sc, []float64{0, 1, 1.5, 3})
			if err != nil {
				return nil, err
			}
			te, err := experiments.AblationTetrisEpsilon(sc, []float64{0.01, 0.1, 1})
			if err != nil {
				return nil, err
			}
			return group{cb, vf, te}, nil
		}},
		{"redundancy", "cloning vs speculation under identical priorities (§1)", func(sc experiments.Scale) (writer, error) {
			return experiments.Redundancy(experiments.DefaultRedundancy(sc))
		}},
		{"learning", "straggler-avoidance extension (§8 future work)", func(sc experiments.Scale) (writer, error) {
			return experiments.StragglerAvoidance(experiments.DefaultStragglerAvoidance(sc))
		}},
		{"estimation", "AM statistics estimation ablation (§5.2)", func(sc experiments.Scale) (writer, error) {
			return experiments.Estimation(experiments.DefaultEstimation(sc))
		}},
		{"locality", "two-level YARN architecture vs flat (§5.2)", func(sc experiments.Scale) (writer, error) {
			return experiments.Locality(experiments.DefaultLocality(sc))
		}},
		{"analysis", "§4.1 cloning analysis + Theorem 1 check", func(sc experiments.Scale) (writer, error) {
			cr, err := experiments.CompetitiveRatio(200, 10, sc.Seed)
			if err != nil {
				return nil, err
			}
			return group{experiments.CloningAnalysis(10, 2), cr}, nil
		}},
	}
}

func main() {
	var (
		scaleName = flag.String("scale", "quick", "quick or paper")
		fig       = flag.String("fig", "", "run a single figure (1, 2, 4, 5-7/pagerank, 5-7/wordcount, 8, 9, 10, 11, overhead, ablations, learning, estimation, locality, analysis)")
		format    = flag.String("format", "text", "text or json")

		sweepMode = flag.Bool("sweep", false, "run the (scheduler × seed × load) sweep grid instead of figures")
		opts      sweepOptions
	)
	flag.StringVar(&opts.schedulers, "sweep-schedulers", "", "comma-separated scheduler names for -sweep (default capacity,tetris,dollymp2; see internal/experiments.SweepSchedulerNames)")
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
	var sc experiments.Scale
	switch scaleName {
	case "quick":
		sc = experiments.Quick()
	case "paper":
		sc = experiments.Paper()
	default:
		return fmt.Errorf("unknown -scale %q", scaleName)
	}
	if format != "text" && format != "json" {
		return fmt.Errorf("unknown -format %q", format)
	}

	jsonOut := make(map[string]interface{})
	ran := 0
	for _, f := range figures() {
		if fig != "" && !strings.HasPrefix(f.id, fig) {
			continue
		}
		res, err := f.run(sc)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.id, err)
		}
		ran++
		if format == "json" {
			jsonOut[f.id] = res
			continue
		}
		if _, err := fmt.Fprintf(out, "=== Figure %s — %s ===\n", f.id, f.desc); err != nil {
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
