package core

import (
	"math"
	"testing"
	"testing/quick"

	"dollymp/internal/knapsack"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

func TestPrioritiesEmpty(t *testing.T) {
	if got := Priorities(nil); len(got) != 0 {
		t.Fatalf("empty: %v", got)
	}
}

func TestPrioritiesSmallJobsFirst(t *testing.T) {
	jobs := []JobInfo{
		{ID: 1, Volume: 0.5, Time: 1.5, Dominant: 0.1},  // small, fast
		{ID: 2, Volume: 8.0, Time: 30.0, Dominant: 0.3}, // big, slow
		{ID: 3, Volume: 0.8, Time: 1.8, Dominant: 0.1},  // small, fast
	}
	p := Priorities(jobs)
	if p[1] >= p[2] || p[3] >= p[2] {
		t.Fatalf("small jobs must precede the big one: %v", p)
	}
	if p[1] != 1 {
		t.Errorf("job 1 (e=1.5 ≤ 2, v=0.5 ≤ 2) should be class 1: %v", p)
	}
}

func TestPrioritiesKnapsackRespectsBudget(t *testing.T) {
	// Three jobs with e ≤ 2 but volumes 1.5 each: class-1 budget is 2,
	// only one fits; the rest are packed at a later class.
	jobs := []JobInfo{
		{ID: 1, Volume: 1.5, Time: 1, Dominant: 0.1},
		{ID: 2, Volume: 1.5, Time: 1, Dominant: 0.1},
		{ID: 3, Volume: 1.5, Time: 1, Dominant: 0.1},
	}
	p := Priorities(jobs)
	class1 := 0
	for _, c := range p {
		if c == 1 {
			class1++
		}
	}
	if class1 != 1 {
		t.Fatalf("class-1 budget 2 fits exactly one 1.5-volume job: %v", p)
	}
	// Per Algorithm 1, already-packed jobs still occupy later budgets:
	// class 2 (budget 4) holds jobs 1+2 (3.0 ≤ 4 but 4.5 > 4), class 3
	// (budget 8) admits all three. So priorities are 1, 2, 3.
	if p[1] != 1 || p[2] != 2 || p[3] != 3 {
		t.Fatalf("staircase expected: %v", p)
	}
}

func TestPrioritiesCoverLongJobs(t *testing.T) {
	// A job whose e exceeds the Step-2 g must still get a class.
	jobs := []JobInfo{
		{ID: 1, Volume: 0.1, Time: 1, Dominant: 0.05},
		{ID: 2, Volume: 0.2, Time: 500, Dominant: 0.05},
	}
	p := Priorities(jobs)
	if _, ok := p[2]; !ok {
		t.Fatal("long job unclassified")
	}
	if p[2] <= p[1] {
		t.Fatalf("long job must rank after the short one: %v", p)
	}
}

func TestPrioritiesAllJobsAssigned(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		jobs := make([]JobInfo, len(raw))
		for i, v := range raw {
			jobs[i] = JobInfo{
				ID:       workload.JobID(i),
				Volume:   float64(v%100)/10 + 0.01,
				Time:     float64(v%50) + 1,
				Dominant: float64(v%9)/10 + 0.01,
			}
		}
		p := Priorities(jobs)
		if len(p) != len(jobs) {
			return false
		}
		for _, c := range p {
			if c < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: scaling every volume up can only push priorities later.
func TestPrioritiesMonotoneInLoad(t *testing.T) {
	base := []JobInfo{
		{ID: 1, Volume: 0.4, Time: 2, Dominant: 0.1},
		{ID: 2, Volume: 1.1, Time: 3, Dominant: 0.2},
		{ID: 3, Volume: 2.0, Time: 6, Dominant: 0.2},
	}
	p1 := Priorities(base)
	heavy := make([]JobInfo, len(base))
	copy(heavy, base)
	for i := range heavy {
		heavy[i].Volume *= 4
	}
	p2 := Priorities(heavy)
	for id := range p1 {
		if p2[id] < p1[id] {
			t.Fatalf("job %d priority improved under heavier load: %v -> %v", id, p1, p2)
		}
	}
}

func TestSortByPriority(t *testing.T) {
	jobs := []JobInfo{
		{ID: 1, Volume: 3, Time: 10, Dominant: 0.2},
		{ID: 2, Volume: 0.5, Time: 1, Dominant: 0.1},
		{ID: 3, Volume: 0.4, Time: 1, Dominant: 0.1},
	}
	p := Priorities(jobs)
	order := SortByPriority(jobs, p)
	if len(order) != 3 {
		t.Fatalf("order: %v", order)
	}
	// Jobs 2 and 3 are class 1; volume tie-break puts 3 before 2.
	if order[0] != 3 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("order: %v (prios %v)", order, p)
	}
}

func TestClassCountGuards(t *testing.T) {
	// Dominant ≥ 1 must not divide by zero.
	jobs := []JobInfo{{ID: 1, Volume: 2, Time: 2, Dominant: 1.0}}
	p := Priorities(jobs)
	if len(p) != 1 {
		t.Fatal("job lost")
	}
	// Zero volume: still classified.
	p = Priorities([]JobInfo{{ID: 1, Volume: 0, Time: 1, Dominant: 0}})
	if p[1] != 1 {
		t.Fatalf("zero-volume job: %v", p)
	}
	if !math.IsInf(math.Log2(0), -1) {
		t.Skip() // sanity about the guard's purpose
	}
}

// knapsackClasses is Algorithm 1 as written: one unit-profit knapsack per
// geometric class over the jobs whose time fits the class deadline,
// packed jobs keeping their place in later classes' item sets. It
// returns classes aligned with jobs.
func knapsackClasses(jobs []JobInfo) []int32 {
	classes := make([]int32, len(jobs))
	if len(jobs) == 0 {
		return classes
	}
	g := classCount(jobs)
	for l := 1; l <= g; l++ {
		budget := math.Ldexp(1, l)
		var items []knapsack.Item
		for i, j := range jobs {
			if j.Time <= budget {
				items = append(items, knapsack.Item{ID: i, Weight: j.Volume})
			}
		}
		for _, i := range knapsack.MaxCardinality(items, budget) {
			if classes[i] == 0 {
				classes[i] = int32(l)
			}
		}
	}
	for i, c := range classes {
		if c == 0 {
			classes[i] = int32(g + 1)
		}
	}
	return classes
}

// TestClassesMatchPriorities checks the aligned-slice classification
// against the per-class knapsack formulation over random instances built
// from the cases its shortcuts could get wrong: tied volumes (the sort's
// index tie-break), tied times and times exactly on powers of two (the
// per-class entry counts), times ≤ 0 and beyond the last class, negative
// volumes, and duplicate IDs, of which the first decides in the exported
// map.
func TestClassesMatchPriorities(t *testing.T) {
	for l := 1; l <= classCap; l++ {
		p := math.Ldexp(1, l)
		if got := firstClass(p); got != l {
			t.Fatalf("firstClass(2^%d) = %d", l, got)
		}
		if got := firstClass(math.Nextafter(p, math.Inf(1))); got != l+1 {
			t.Fatalf("firstClass(2^%d + ulp) = %d, want %d", l, got, l+1)
		}
	}
	for _, v := range []float64{0, -3, 1.5, 2} {
		if got := firstClass(v); got != 1 {
			t.Fatalf("firstClass(%v) = %d, want 1", v, got)
		}
	}
	for _, v := range []float64{math.Inf(1), math.NaN(), 1e30} {
		if got := firstClass(v); got != classCap+1 {
			t.Fatalf("firstClass(%v) = %d, want %d", v, got, classCap+1)
		}
	}

	var buf prioScratch // reused, as the scheduler reuses it
	for seed := uint64(1); seed <= 300; seed++ {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(60)
		volumes := []float64{0, 0.25, 0.5, 0.5, 1, 1.5, 3, 7, 40, -1}
		jobs := make([]JobInfo, n)
		for i := range jobs {
			j := JobInfo{ID: workload.JobID(rng.Intn(n)), Dominant: rng.Range(0, 0.6)} // IDs repeat
			switch rng.Intn(3) {
			case 0:
				j.Volume = volumes[rng.Intn(len(volumes))]
			default:
				j.Volume = rng.Range(0, 6)
			}
			switch rng.Intn(6) {
			case 0:
				j.Time = math.Ldexp(1, rng.Intn(9)) // 1, 2, 4, … 256
			case 1:
				j.Time = float64(rng.Intn(4)) - 1 // -1, 0, 1, 2
			case 2:
				j.Time = 1e30 // beyond every class
			case 3:
				j.Time = float64(1 + rng.Intn(5)) // ties
			default:
				j.Time = rng.Range(0.1, 300)
			}
			jobs[i] = j
		}
		want := knapsackClasses(jobs)
		got := prioritiesInto(jobs, &buf)
		if len(got) != n {
			t.Fatalf("seed %d: %d classes for %d jobs", seed, len(got), n)
		}
		for i := range jobs {
			if got[i] != want[i] {
				t.Fatalf("seed %d: job %d %+v classified %d, the knapsack formulation says %d\njobs %+v\ngot  %v\nwant %v",
					seed, i, jobs[i], got[i], want[i], jobs, got, want)
			}
		}
		byID := Priorities(jobs)
		first := make(map[workload.JobID]bool, n)
		for i, j := range jobs {
			if first[j.ID] {
				continue
			}
			first[j.ID] = true
			if byID[j.ID] != int(want[i]) {
				t.Fatalf("seed %d: Priorities[%d] = %d, its first entry (job %d) is class %d", seed, j.ID, byID[j.ID], i, want[i])
			}
		}
		if len(byID) != len(first) {
			t.Fatalf("seed %d: %d IDs in the map, %d distinct", seed, len(byID), len(first))
		}
	}
}
