package experiments

import (
	"encoding/json"
	"testing"

	"dollymp/internal/sched/builtin"
)

func TestRunSweepSmallGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep in -short mode")
	}
	cfg := SweepConfig{
		Schedulers: []string{"tetris", "dollymp2"},
		Seeds:      []uint64{42, 43},
		Loads:      []float64{0.5},
		Jobs:       12,
		Fleet:      60,
		FleetSeed:  42,
	}
	out, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 4 {
		t.Fatalf("cells: %d", len(out.Cells))
	}
	for _, c := range out.Cells {
		if c.Stats.Jobs != cfg.Jobs {
			t.Errorf("%s/seed=%d completed %d/%d jobs", c.Cell.Scheduler, c.Cell.Seed, c.Stats.Jobs, cfg.Jobs)
		}
		if c.Stats.MeanJCT <= 0 || c.Stats.P99JCT < c.Stats.P50JCT {
			t.Errorf("%s/seed=%d: degenerate stats %+v", c.Cell.Scheduler, c.Cell.Seed, c.Stats)
		}
	}
	if len(out.Aggregates) != 2 {
		t.Fatalf("aggregates: %d", len(out.Aggregates))
	}
	// Aggregates replicate across seeds, so they must be stable over a
	// repeated run and serializable for BENCH_sweep.json.
	again, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(out.Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(again.Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("sweep aggregates not reproducible:\n%s\nvs\n%s", a, b)
	}
}

func TestSchedulerVariantRegistry(t *testing.T) {
	for _, name := range builtin.Names() {
		v, err := SchedulerVariant(name)
		if err != nil {
			t.Fatal(err)
		}
		s := v.New(1)
		if s == nil {
			t.Fatalf("%s: nil scheduler", name)
		}
		if s.Name() != name {
			t.Errorf("variant %q builds scheduler named %q", name, s.Name())
		}
	}
	if _, err := SchedulerVariant("nosuch"); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestRunSweepValidation(t *testing.T) {
	if _, err := RunSweep(SweepConfig{Schedulers: []string{"nosuch"}, Seeds: []uint64{1}, Jobs: 1, Fleet: 4}); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, err := RunSweep(SweepConfig{Schedulers: []string{"tetris"}, Seeds: []uint64{1}}); err == nil {
		t.Error("zero jobs/fleet accepted")
	}
}
