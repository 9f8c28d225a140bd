package dollymp

// The name registry shared by every command-line entry point
// (dollymp-sim, dollympd, dollymp-load): one place maps -scheduler,
// -workload and -fleet strings to constructors, so the binaries stay in
// agreement and an unknown name can be reported with the full list of
// valid ones.

import (
	"fmt"
	"strconv"
	"strings"

	"dollymp/internal/sched/builtin"
	"dollymp/internal/trace"
)

// SchedulerNames lists every built-in scheduler name accepted by
// NewScheduler, in presentation order.
func SchedulerNames() []string { return builtin.Names() }

// WorkloadNames lists every generator name accepted by NewWorkload.
func WorkloadNames() []string {
	return []string{"mixed", "google", "pagerank", "wordcount", "terasort", "mliter"}
}

// NewWorkload builds n jobs of the named synthetic workload with the
// given inter-arrival gap in slots. An unknown name errs with the list
// of valid ones.
func NewWorkload(name string, n int, gap float64, seed uint64) ([]*Job, error) {
	switch name {
	case "mixed":
		return MixedWorkload(n, int64(gap), seed), nil
	case "google":
		return GoogleWorkload(n, gap, seed), nil
	case "pagerank", "wordcount":
		return trace.Homogeneous(name, n, 10,
			trace.Arrival{Kind: trace.FixedInterval, MeanGap: gap}, seed)
	case "terasort":
		jobs := make([]*Job, n)
		for i := range jobs {
			jobs[i] = TeraSortJob(int64(i), int64(float64(i)*gap), 10, seed+uint64(i))
		}
		return jobs, nil
	case "mliter":
		jobs := make([]*Job, n)
		for i := range jobs {
			jobs[i] = MLIterationJob(int64(i), int64(float64(i)*gap), 3, seed+uint64(i))
		}
		return jobs, nil
	default:
		return nil, fmt.Errorf("dollymp: unknown workload %q (valid: %s)",
			name, strings.Join(WorkloadNames(), ", "))
	}
}

// NewFleet parses a fleet spec — "testbed30" for the paper's private
// cluster, or a positive server count for a synthetic large fleet.
func NewFleet(spec string, seed uint64) (*Cluster, error) {
	if spec == "testbed30" {
		return Testbed30(), nil
	}
	n, err := strconv.Atoi(spec)
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("dollymp: invalid fleet %q (valid: testbed30, or a positive server count)", spec)
	}
	return LargeFleet(n, seed), nil
}
