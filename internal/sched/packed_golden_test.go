package sched_test

import (
	"encoding/binary"
	"hash/fnv"
	"maps"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/sched"
	"dollymp/internal/sched/capacity"
	"dollymp/internal/sched/carbyne"
	"dollymp/internal/sched/drf"
	"dollymp/internal/sched/random"
	"dollymp/internal/sched/srpt"
	"dollymp/internal/sched/svf"
	"dollymp/internal/sched/tetris"
	"dollymp/internal/sim"
	"dollymp/internal/stats"
	"dollymp/internal/trace"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
	"dollymp/internal/yarn"
)

// goldenRun is what a golden row pins about one run: the totals, and an
// FNV-64 digest of every placement's (slot, job, phase, index, server)
// in the order the engine applied them, so two schedules that differ in
// a single placement never read alike.
type goldenRun struct {
	flowtime, makespan int64
	calls              int
	digest             uint64
}

// runGolden drains jobs on the 30-node testbed, certified by
// verify.Stream, and returns the run's pins.
func runGolden(t *testing.T, s sched.Scheduler, jobs []*workload.Job) goldenRun {
	t.Helper()
	h := fnv.New64a()
	var buf [40]byte
	e, cert, err := verify.New(sim.Config{
		Cluster: cluster.Testbed30(), Jobs: jobs, Scheduler: s, Seed: 7,
		Observe: func(o *sim.Observation) {
			if o.Kind != sim.TracePlace {
				return
			}
			for i, v := range []uint64{uint64(o.Slot), uint64(o.Ref.Job), uint64(o.Ref.Phase), uint64(o.Ref.Index), uint64(o.Server)} {
				binary.LittleEndian.PutUint64(buf[8*i:], v)
			}
			h.Write(buf[:])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err == nil {
		err = cert.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("completed %d/%d jobs", len(res.Jobs), len(jobs))
	}
	return goldenRun{res.TotalFlowtime(), res.Makespan, res.SchedCalls, h.Sum64()}
}

// TestBaselinesPackedGolden pins every scheduler that shares the fit
// index or the baselines' shared walks, twice: on a packed fleet — 300
// Google-like jobs all queued at slot 0 on the 30-node testbed, where
// most BestFit queries of a call miss — and with the same 300 jobs at
// their generated arrivals. The other goldens run at light load
// (BENCH_sweep.json: 3–12 % utilisation) or check run-over-run equality
// only, so a change that altered a baseline's packed schedule would
// pass them. The packed totals were recorded on the commit before the
// tracker learned from its misses; the digests and the arrival runs on
// the commit before the baselines shared their walks, which is also
// where the transient rows (Algorithm 1 end to end on the unit cluster
// of §4.2, under each clone policy) were recorded. dollymp3 is the one
// built-in policy whose third clone pass grants copies (47 tasks reach
// four live copies packed, 1 269 arriving); its row was recorded on the
// commit before DollyMP's clone passes moved onto the baselines' walk.
func TestBaselinesPackedGolden(t *testing.T) {
	arriving := trace.DefaultGoogleLike(300, 1.0, 7).Generate()
	packed := trace.DefaultGoogleLike(300, 1.0, 7).Generate()
	for _, j := range packed {
		j.Arrival = 0
	}
	for _, tc := range []struct {
		name             string
		new              func() sched.Scheduler
		packed, arriving goldenRun
	}{
		{"capacity", func() sched.Scheduler { return capacity.Default() },
			goldenRun{16127, 174, 217, 6290425126286775839}, goldenRun{7119, 478, 810, 6724241981365183690}},
		{"capacity-nospec", func() sched.Scheduler { return &capacity.Scheduler{} },
			goldenRun{16441, 181, 231, 659284020705158275}, goldenRun{7190, 459, 810, 18370417496343226982}},
		{"drf", func() sched.Scheduler { return &drf.Scheduler{} },
			goldenRun{14668, 221, 223, 15230583498725875147}, goldenRun{8101, 466, 830, 2201048594278759742}},
		{"tetris", func() sched.Scheduler { return &tetris.Scheduler{R: 1.5} },
			goldenRun{17537, 318, 228, 3112912758643695551}, goldenRun{8052, 463, 793, 9577456422208869698}},
		{"tetris-clones", func() sched.Scheduler { return &tetris.Scheduler{R: 1.5, MaxClones: 1} },
			goldenRun{16738, 131, 204, 17665433181185878869}, goldenRun{5773, 455, 1158, 8384810604069097124}},
		{"tetris-clones2", func() sched.Scheduler { return &tetris.Scheduler{R: 1.5, MaxClones: 2} },
			goldenRun{16611, 101, 190, 3187037247460405998}, goldenRun{5295, 440, 1159, 17900004332497193855}},
		{"carbyne", func() sched.Scheduler { return &carbyne.Scheduler{R: 1.5} },
			goldenRun{14922, 344, 240, 17143816806458828350}, goldenRun{8101, 466, 830, 2201048594278759742}},
		{"srpt", func() sched.Scheduler { return &srpt.Scheduler{R: 1.5} },
			goldenRun{14855, 199, 250, 12956380895477856928}, goldenRun{8253, 469, 818, 1786945315518400520}},
		{"svf", func() sched.Scheduler { return &svf.Scheduler{R: 1.5} },
			goldenRun{12533, 456, 219, 8368382769036690980}, goldenRun{7974, 461, 798, 16515063996269258480}},
		{"random", func() sched.Scheduler { return random.New(7) },
			goldenRun{16999, 201, 236, 7115739121357738610}, goldenRun{10023, 534, 836, 13723140018837067857}},
		{"yarn", func() sched.Scheduler { return yarn.New() },
			goldenRun{13937, 114, 205, 2327068767011498601}, goldenRun{5529, 436, 1110, 10512714712061008605}},
		{"dollymp1", func() sched.Scheduler { return core.MustNew(core.WithClones(1)) },
			goldenRun{13897, 109, 206, 9093512785130245043}, goldenRun{5443, 445, 1152, 7613856677218854345}},
		{"dollymp2", func() sched.Scheduler { return core.MustNew(core.WithClones(2)) },
			goldenRun{13839, 115, 203, 5990395173055545809}, goldenRun{5176, 437, 1120, 12919257571042434162}},
		{"dollymp3", func() sched.Scheduler { return core.MustNew(core.WithClones(3)) },
			goldenRun{13845, 115, 213, 2361219110420476066}, goldenRun{5113, 441, 1030, 15423026427037780483}},
		{"dollymp-spec", func() sched.Scheduler { return core.MustNew(core.WithSpeculation(1.5, 3)) },
			goldenRun{14236, 143, 226, 3683042341588287122}, goldenRun{7041, 478, 811, 3125615583750671187}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got := runGolden(t, tc.new(), packed); got != tc.packed {
				t.Errorf("packed: got %+v; pinned %+v", got, tc.packed)
			}
			if got := runGolden(t, tc.new(), arriving); got != tc.arriving {
				t.Errorf("arriving: got %+v; pinned %+v", got, tc.arriving)
			}
		})
	}
	jobs := transientInstance()
	for _, tc := range []struct {
		name     string
		policy   core.ClonePolicy
		flowtime float64
		clones   map[workload.JobID]int // the jobs granted a clone
	}{
		{"transient-none", core.NoClones, 620.9568287228545, map[workload.JobID]int{}},
		{"transient-head", core.HeadClone, 634.4252561577866, map[workload.JobID]int{4: 1, 11: 1}},
		{"transient-corollary", core.CorollaryClones, 645.2885693198774, map[workload.JobID]int{1: 1, 2: 1, 9: 1, 14: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.TransientSchedule(jobs, tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			cloned := maps.Clone(res.Clones)
			maps.DeleteFunc(cloned, func(_ workload.JobID, n int) bool { return n == 0 })
			if res.TotalFlowtime != tc.flowtime || len(res.Clones) != len(jobs) || !maps.Equal(cloned, tc.clones) {
				t.Errorf("flowtime %v, %d clone entries, clones %v; pinned %v, %d, %v",
					res.TotalFlowtime, len(res.Clones), cloned, tc.flowtime, len(jobs), tc.clones)
			}
		})
	}
}

// transientInstance is a seeded 16-job transient instance whose
// Pareto-tailed durations make cloning pay for some jobs and not others.
func transientInstance() []core.TransientJob {
	rng := stats.NewRNG(11)
	jobs := make([]core.TransientJob, 16)
	for i := range jobs {
		jobs[i] = core.TransientJob{
			ID:       workload.JobID(i + 1),
			Dominant: rng.Range(0.05, 0.6),
			Duration: rng.Range(1, 40),
			Speedup:  func(r int) float64 { return stats.ParetoSpeedup(2, r) },
		}
	}
	return jobs
}
