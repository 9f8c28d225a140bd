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
// asks for most: nothing on a full 2000-server fleet fits. Every server
// keeps a sliver — CPU-poor on even positions, memory-poor on odd ones —
// so the root's bound (2000, 512) fits demands that no server does.
// repeat asks for 1c/1G over and over: the first miss is decided by the
// root's bound and every later one by the miss frontier. dominated
// cycles through 16 demands of which only the first, 1000m/512M, is not
// ≥ another, with a Reset every 400 queries — one Schedule call's worth
// — so each epoch's first miss pays a search of the whole tree (the
// demand fits the root and every pair of neighbours, and no server) and
// the frontier answers the other 399.
func BenchmarkFitTrackerBestFitMiss(b *testing.B) {
	fleet := cluster.LargeFleet(2000, 1)
	for i, s := range fleet.Servers() {
		sliver := resources.Vec(500, 512)
		if i%2 == 1 {
			sliver = resources.Vec(2000, 256)
		}
		if err := fleet.Allocate(s.ID, s.Capacity.Sub(sliver)); err != nil {
			b.Fatal(err)
		}
	}
	cycle := make([]resources.Vector, 16)
	for i := range cycle {
		cycle[i] = resources.Vec(1000+250*int64(i%4), 512+128*int64(i/4))
	}
	for _, bc := range []struct {
		name    string
		demands []resources.Vector
		// epoch is the number of queries between Resets; 0 for none.
		epoch int
	}{
		{"repeat", []resources.Vector{resources.Cores(1, 1)}, 0},
		{"dominated", cycle, 400},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ft := NewFitTracker(fleet)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.epoch > 0 && i%bc.epoch == 0 {
					ft.Reset(fleet)
				}
				if _, ok := ft.BestFit(bc.demands[i%len(bc.demands)]); ok {
					b.Fatal("full fleet fits")
				}
			}
		})
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
