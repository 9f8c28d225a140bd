package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dollymp/internal/experiments"
	"dollymp/internal/metrics"
	"dollymp/internal/sweep"
)

// sweepOptions carries the -sweep flag group.
type sweepOptions struct {
	scale      string
	schedulers string // comma-separated names; empty = default grid
	seeds      int    // number of seeds, seedBase..seedBase+n-1
	seedBase   uint64
	loads      string // comma-separated target loads; empty = default
	jobs       int    // 0 = scale default
	fleet      int    // 0 = scale default
	workers    int    // 0 = GOMAXPROCS
	out        string // JSON path; "-" = stdout
	cpuprofile string
	memprofile string
}

// sweepReport is the BENCH_sweep.json schema (version
// "dollymp-bench-sweep/v1"): the grid, per-cell JCT statistics, and
// across-seed aggregates. Everything except wall_time_ns, sched_wall_ns
// and peak_rss_bytes is deterministic for a given grid. peak_rss_bytes
// is omitted entirely where /proc/self/status is unavailable — absent,
// not a misleading zero.
type sweepReport struct {
	Schema       string            `json:"schema"`
	Scale        string            `json:"scale"`
	Schedulers   []string          `json:"schedulers"`
	Seeds        []uint64          `json:"seeds"`
	Loads        []float64         `json:"loads"`
	Jobs         int               `json:"jobs"`
	Fleet        int               `json:"fleet"`
	Workers      int               `json:"workers"`
	WallTimeNs   int64             `json:"wall_time_ns"`
	PeakRSSBytes int64             `json:"peak_rss_bytes,omitempty"`
	Cells        []sweepCell       `json:"cells"`
	Aggregates   []sweep.Aggregate `json:"aggregates"`
}

// sweepCell flattens one grid point with its statistics.
type sweepCell struct {
	sweep.Cell
	sweep.JCTStats
}

func parseLoads(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func sweepConfigFor(opts sweepOptions) (experiments.SweepConfig, error) {
	scale, ok := scales[opts.scale]
	if !ok {
		return experiments.SweepConfig{}, fmt.Errorf("unknown -scale %q", opts.scale)
	}
	sc := scale()
	cfg := experiments.DefaultSweep(sc)
	if opts.schedulers != "" {
		cfg.Schedulers = nil
		for _, name := range strings.Split(opts.schedulers, ",") {
			cfg.Schedulers = append(cfg.Schedulers, strings.TrimSpace(name))
		}
	}
	if opts.seeds > 0 {
		base := opts.seedBase
		if base == 0 {
			base = sc.Seed
		}
		cfg.Seeds = make([]uint64, opts.seeds)
		for i := range cfg.Seeds {
			cfg.Seeds[i] = base + uint64(i)
		}
	}
	loads, err := parseLoads(opts.loads)
	if err != nil {
		return experiments.SweepConfig{}, err
	}
	if loads != nil {
		cfg.Loads = loads
	}
	if opts.jobs > 0 {
		cfg.Jobs = opts.jobs
	}
	if opts.fleet > 0 {
		cfg.Fleet = opts.fleet
	}
	cfg.Workers = opts.workers
	return cfg, nil
}

// runSweepMode executes the grid and writes BENCH_sweep.json plus a
// human-readable summary on stdout.
func runSweepMode(opts sweepOptions, stdout io.Writer) error {
	cfg, err := sweepConfigFor(opts)
	if err != nil {
		return err
	}
	if opts.cpuprofile != "" {
		f, err := os.Create(opts.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	out, err := experiments.RunSweep(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if opts.memprofile != "" {
		f, err := os.Create(opts.memprofile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	report := sweepReport{
		Schema:     "dollymp-bench-sweep/v1",
		Scale:      opts.scale,
		Schedulers: cfg.Schedulers,
		Seeds:      cfg.Seeds,
		Loads:      cfg.Loads,
		Jobs:       cfg.Jobs,
		Fleet:      cfg.Fleet,
		Workers:    workers,
		WallTimeNs: wall.Nanoseconds(),
		Aggregates: out.Aggregates,
	}
	if rss, ok := peakRSSBytes(); ok {
		report.PeakRSSBytes = rss
	}
	for _, c := range out.Cells {
		report.Cells = append(report.Cells, sweepCell{Cell: c.Cell, JCTStats: c.Stats})
	}

	if opts.out == "-" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	f, err := os.Create(opts.out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := writeSweepSummary(stdout, &report); err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "wrote %s (%d cells, %d workers, %.2fs wall)\n",
		opts.out, len(report.Cells), workers, wall.Seconds())
	return err
}

// writeSweepSummary renders the across-seed aggregates as a text table.
func writeSweepSummary(w io.Writer, r *sweepReport) error {
	tab := &metrics.Table{
		Title:   fmt.Sprintf("Sweep: %d schedulers × %d seeds × %d loads, %d jobs on %d servers", len(r.Schedulers), len(r.Seeds), len(r.Loads), r.Jobs, r.Fleet),
		Columns: []string{"scheduler", "load", "mean JCT", "95% CI", "p50", "p99"},
	}
	for _, a := range r.Aggregates {
		tab.AddRow(a.Scheduler,
			fmt.Sprintf("%.2f", a.Load),
			a.MeanJCT.Mean,
			fmt.Sprintf("[%.1f, %.1f]", a.MeanJCT.Lo, a.MeanJCT.Hi),
			a.P50JCT.Mean,
			a.P99JCT.Mean,
		)
	}
	return tab.Write(w)
}
