package experiments

import (
	"fmt"

	"dollymp/internal/cluster"
	"dollymp/internal/sched/builtin"
	"dollymp/internal/sweep"
	"dollymp/internal/workload"
)

// SweepSchedulerNames lists every scheduler the sweep grid accepts, for
// CLI help and validation.
func SweepSchedulerNames() []string { return builtin.Names() }

// SchedulerVariant resolves a scheduler name to a sweep axis point.
// The variant hands the cell seed to the constructor, so stochastic
// schedulers stay deterministic per cell.
func SchedulerVariant(name string) (sweep.Variant, error) {
	build, ok := builtin.Lookup(name)
	if !ok {
		return sweep.Variant{}, fmt.Errorf("experiments: unknown scheduler %q (have %v)",
			name, SweepSchedulerNames())
	}
	return sweep.Variant{Name: name, New: build}, nil
}

// SweepConfig configures the (scheduler × seed × load) replication grid
// of RunSweep: the §6.3 trace-driven workload replayed under every named
// scheduler, once per seed, at every target arrival load.
type SweepConfig struct {
	Schedulers []string
	Seeds      []uint64
	Loads      []float64
	// Jobs and Fleet size each cell's workload and cluster.
	Jobs  int
	Fleet int
	// FleetSeed fixes the hardware mix; the whole grid runs on the same
	// (copies of the same) fleet so cells differ only along the axes.
	FleetSeed uint64
	// Workers bounds concurrent cells; 0 means GOMAXPROCS.
	Workers int
}

// DefaultSweep is the standing benchmark grid: three schedulers × eight
// seeds at moderate load, the replication floor for trend tracking.
func DefaultSweep(sc Scale) SweepConfig {
	seeds := make([]uint64, 8)
	for i := range seeds {
		seeds[i] = sc.Seed + uint64(i)
	}
	return SweepConfig{
		Schedulers: []string{"capacity", "tetris", "dollymp2"},
		Seeds:      seeds,
		Loads:      []float64{0.5},
		Jobs:       sc.jobs(600),
		Fleet:      sc.Fleet,
		FleetSeed:  sc.Seed,
	}
}

// RunSweep executes the grid through the sweep pool.
func RunSweep(cfg SweepConfig) (*sweep.Outcome, error) {
	variants := make([]sweep.Variant, len(cfg.Schedulers))
	for i, name := range cfg.Schedulers {
		v, err := SchedulerVariant(name)
		if err != nil {
			return nil, err
		}
		variants[i] = v
	}
	if cfg.Jobs <= 0 || cfg.Fleet <= 0 {
		return nil, fmt.Errorf("experiments: sweep needs positive jobs (%d) and fleet (%d)", cfg.Jobs, cfg.Fleet)
	}
	return sweep.Run(sweep.Spec{
		Schedulers: variants,
		Seeds:      cfg.Seeds,
		Loads:      cfg.Loads,
		Workers:    cfg.Workers,
		Fleet:      func() *cluster.Cluster { return cluster.LargeFleet(cfg.Fleet, cfg.FleetSeed) },
		Jobs: func(load float64, seed uint64) []*workload.Job {
			return googleWorkload(cfg.Jobs, cluster.LargeFleet(cfg.Fleet, cfg.FleetSeed), load, seed)
		},
	})
}
