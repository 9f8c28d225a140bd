package sched

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

// BenchmarkJobCursor measures lazy task enumeration over a deep backlog
// — the structure that keeps per-decision cost O(active jobs) instead of
// O(pending tasks).
func BenchmarkJobCursor(b *testing.B) {
	j := &workload.Job{ID: 1, Name: "wide", App: "b", Phases: []workload.Phase{{
		Name: "p", Tasks: 10000, Demand: resources.Cores(1, 1), MeanDuration: 5,
	}}}
	js := workload.NewJobState(j)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := NewJobCursor(js)
		// A scheduler probes the head a handful of times per decision.
		for k := 0; k < 8; k++ {
			if _, ok := cur.Peek(); !ok {
				b.Fatal("cursor empty")
			}
			cur.Advance()
		}
	}
}

// BenchmarkFitTrackerBestFit measures best-fit selection the way a clone
// pass uses it: the fleet is 60 % allocated in random pieces, every
// answer is consumed by a Place, and every 400 answers — one Schedule
// call's worth — or when nothing fits anymore the tracker is Reset, so
// the snapshot and the lazy tree build are on the clock. Sizes: the
// 30-node testbed, a 2000-server fleet and the paper's 30K-server fleet.
func BenchmarkFitTrackerBestFit(b *testing.B) {
	demands := []resources.Vector{resources.Cores(2, 4), resources.Cores(1, 1), resources.Cores(4, 6), resources.Cores(1, 3)}
	for _, bc := range []struct {
		name  string
		fleet *cluster.Cluster
	}{
		{"testbed30", cluster.Testbed30()},
		{"fleet2000", cluster.LargeFleet(2000, 1)},
		{"fleet30000", cluster.LargeFleet(30000, 1)},
	} {
		rng := stats.NewRNG(3)
		servers := bc.fleet.Servers()
		target := bc.fleet.Total().CPUMilli * 6 / 10
		for used := int64(0); used < target; {
			d := demands[rng.Intn(len(demands))]
			if bc.fleet.Allocate(servers[rng.Intn(len(servers))].ID, d) == nil {
				used += d.CPUMilli
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			ft := NewFitTracker(bc.fleet)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%400 == 0 {
					ft.Reset(bc.fleet)
				}
				d := demands[i%len(demands)]
				id, ok := ft.BestFit(d)
				if !ok { // the testbed fills before 400 answers
					ft.Reset(bc.fleet)
					continue
				}
				ft.Place(id, d)
			}
		})
	}
}

// BenchmarkFitTrackerBestFitMiss measures the answer the packing regime
// asks for most: nothing on a full 2000-server fleet fits.
func BenchmarkFitTrackerBestFitMiss(b *testing.B) {
	fleet := cluster.LargeFleet(2000, 1)
	ft := NewFitTracker(fleet)
	for _, s := range fleet.Servers() {
		// Leave every server a sliver, so the miss is decided by the
		// bound and not by an all-zero fleet.
		ft.Place(s.ID, s.Capacity.Sub(resources.Vec(500, 512)))
	}
	d := resources.Cores(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ft.BestFit(d); ok {
			b.Fatal("full fleet fits")
		}
	}
}

// BenchmarkReadyPendingTasks contrasts the eager enumeration with the
// cursor above.
func BenchmarkReadyPendingTasks(b *testing.B) {
	j := &workload.Job{ID: 1, Name: "wide", App: "b", Phases: []workload.Phase{{
		Name: "p", Tasks: 10000, Demand: resources.Cores(1, 1), MeanDuration: 5,
	}}}
	js := workload.NewJobState(j)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ReadyPendingTasks(js); len(got) != 10000 {
			b.Fatal("short list")
		}
	}
}
