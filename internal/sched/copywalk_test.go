package sched_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/sched/schedtest"
	"dollymp/internal/workload"
)

// nestedGrant is the copy walk in its nested-pass form, the reference
// CopyWalk.Grant is checked against: pass p walks every job, ready phase
// and running task and tops up each task that holds exactly p copies,
// counting the grants of this call in a map.
func nestedGrant(ctx sched.Context, ft *sched.FitTracker, jobs []*workload.JobState, rules sched.CopyRules,
	bind func(*workload.JobState, workload.TaskRef, resources.Vector) (cluster.ServerID, bool)) []sched.Placement {
	budget, use := sched.CloneBudget(ctx.Cluster().Total(), rules.Delta), ctx.CloneUsage()
	granted := map[workload.TaskRef]int{}
	var out []sched.Placement
	for pass := 1; pass < rules.Copies; pass++ {
		for _, js := range jobs {
			for _, k := range js.ReadyPhases() {
				demand := js.Job.Phases[k].Demand
				for _, l := range js.RunningTasks(k) {
					ref := workload.TaskRef{Job: js.Job.ID, Phase: k, Index: l}
					if js.LiveCopies(k, l)+granted[ref] != pass {
						continue
					}
					if rules.Due != nil && !rules.Due(ref) || rules.Delta > 0 && !use.Add(demand).Fits(budget) {
						continue
					}
					var srv cluster.ServerID
					var ok bool
					if bind == nil {
						srv, ok = ft.BestFit(demand)
					} else {
						srv, ok = bind(js, ref, demand)
					}
					if !ok {
						continue
					}
					ft.Place(srv, demand)
					use = use.Add(demand)
					granted[ref]++
					out = append(out, sched.Placement{Ref: ref, Server: srv})
				}
			}
		}
	}
	return out
}

// TestCopyWalkMatchesNestedPasses drives CopyWalk.Grant and nestedGrant
// over random decision points and demands the same placements in the
// same order. Jobs have one to three ready phases whose running tasks
// hold one to MaxCopies copies, with done and pending tasks among them;
// the copy cap runs from 2 to MaxCopies and the δ budget from none to
// tight. Some draws add a Due trigger that refuses some tasks, and some
// a bind that refuses some tasks and every fifth call besides: a
// refusal need not repeat, so a walk that asks about a task the nested
// form would not ask about shows as a different placement.
func TestCopyWalkMatchesNestedPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var walk sched.CopyWalk
	grants, chained := 0, 0 // chained: grants to a task this call already topped up
	for trial := 0; trial < 400; trial++ {
		specs := make([]cluster.Spec, 1+rng.Intn(8))
		for i := range specs {
			specs[i] = cluster.Spec{Name: fmt.Sprint(i), Capacity: resources.Cores(int64(4+rng.Intn(13)), int64(8+rng.Intn(25))), Speed: 1}
		}
		fleet, err := cluster.New(specs)
		if err != nil {
			t.Fatal(err)
		}
		ctx := schedtest.New(fleet)
		ctx.CloneUse = resources.Cores(int64(rng.Intn(3)), int64(rng.Intn(5)))
		for j := 0; j < 1+rng.Intn(6); j++ {
			phases := make([]workload.Phase, 1+rng.Intn(3))
			for k := range phases {
				phases[k] = workload.Phase{Name: fmt.Sprint(k), Tasks: 1 + rng.Intn(8),
					Demand: resources.Cores(int64(1+rng.Intn(3)), int64(1+rng.Intn(6))), MeanDuration: 5}
			}
			js := ctx.MustAddJob(&workload.Job{ID: workload.JobID(j), Name: "j", App: "t", Phases: phases})
			for k := range phases {
				for l := 0; l < phases[k].Tasks; l++ {
					switch rng.Intn(6) {
					case 0: // pending
					case 1:
						js.MarkRunning(workload.PhaseID(k), l)
						if err := js.MarkDone(workload.PhaseID(k), l); err != nil {
							t.Fatal(err)
						}
					default:
						for c := 1 + rng.Intn(workload.MaxCopies); c > 0; c-- {
							js.MarkRunning(workload.PhaseID(k), l)
						}
					}
				}
			}
		}
		rules := sched.CopyRules{Copies: 2 + rng.Intn(workload.MaxCopies-1), Delta: []float64{0, 0.05, 0.2, 1}[rng.Intn(4)]}
		salt := rng.Int()
		refuse := func(ref workload.TaskRef) bool { return (ref.Index*7+int(ref.Job)*13+int(ref.Phase)*5+salt)%3 == 0 }
		if rng.Intn(4) == 0 {
			rules.Due = func(ref workload.TaskRef) bool { return !refuse(ref) }
		}
		bindOf := func(ft *sched.FitTracker) func(*workload.JobState, workload.TaskRef, resources.Vector) (cluster.ServerID, bool) {
			if salt%4 != 0 {
				return nil
			}
			calls := 0
			return func(_ *workload.JobState, ref workload.TaskRef, d resources.Vector) (cluster.ServerID, bool) {
				if calls++; refuse(ref) || (calls+salt)%5 == 0 {
					return 0, false
				}
				return ft.BestFit(d)
			}
		}
		ft, refFT := sched.NewFitTracker(fleet), sched.NewFitTracker(fleet)
		jobs := ctx.Jobs()
		got := walk.Grant(ctx, ft, sched.Cursors(jobs), rules, bindOf(ft), nil)
		want := nestedGrant(ctx, refFT, jobs, rules, bindOf(refFT))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, rules %+v:\nGrant  %v\nnested %v", trial, rules, got, want)
		}
		seen := map[workload.TaskRef]bool{}
		for _, p := range want {
			if seen[p.Ref] {
				chained++
			}
			seen[p.Ref] = true
		}
		grants += len(want)
	}
	t.Logf("%d grants, %d of them to a task topped up earlier in the call", grants, chained)
	if chained == 0 {
		t.Fatal("no task was topped up twice in one call: the later passes went unchecked")
	}
}
