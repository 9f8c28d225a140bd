package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dollymp/internal/resources"
)

func mapReduce(id JobID, arrival int64) *Job {
	return Chain(id, "wc", "wordcount", arrival, []Phase{
		{Name: "map", Tasks: 4, Demand: resources.Cores(1, 2), MeanDuration: 10, SDDuration: 2},
		{Name: "reduce", Tasks: 2, Demand: resources.Cores(2, 4), MeanDuration: 6, SDDuration: 1},
	})
}

func TestValidateOK(t *testing.T) {
	if err := mapReduce(1, 0).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := SingleTask(2, 5, resources.Cores(1, 1), 3, 0).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Job { return mapReduce(1, 0) }
	cases := []struct {
		name   string
		mutate func(*Job)
	}{
		{"no phases", func(j *Job) { j.Phases = nil }},
		{"zero tasks", func(j *Job) { j.Phases[0].Tasks = 0 }},
		{"zero duration", func(j *Job) { j.Phases[0].MeanDuration = 0 }},
		{"negative sd", func(j *Job) { j.Phases[0].SDDuration = -1 }},
		{"NaN duration", func(j *Job) { j.Phases[0].MeanDuration = math.NaN() }},
		{"infinite duration", func(j *Job) { j.Phases[0].MeanDuration = math.Inf(1) }},
		{"NaN sd", func(j *Job) { j.Phases[0].SDDuration = math.NaN() }},
		{"infinite sd", func(j *Job) { j.Phases[0].SDDuration = math.Inf(1) }},
		{"zero demand", func(j *Job) { j.Phases[0].Demand = resources.Vec(0, 0) }},
		{"negative demand", func(j *Job) { j.Phases[0].Demand = resources.Vec(-1, 5) }},
		{"bad parent", func(j *Job) { j.Phases[1].Parents = []PhaseID{7} }},
		{"self parent", func(j *Job) { j.Phases[1].Parents = []PhaseID{1} }},
		{"cycle", func(j *Job) { j.Phases[0].Parents = []PhaseID{1} }},
	}
	for _, c := range cases {
		j := base()
		c.mutate(j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// dag builds n unit phases whose parents are given per phase.
func dag(id JobID, parents [][]PhaseID) *Job {
	j := &Job{ID: id, Phases: make([]Phase, len(parents))}
	for k := range j.Phases {
		j.Phases[k] = Phase{Name: "p", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 1, Parents: parents[k]}
	}
	return j
}

// TestValidateAllocatesNothing: Validate runs twice per replayed job
// and once per daemon submit; its acyclicity check must not build the
// order TopoOrder returns.
func TestValidateAllocatesNothing(t *testing.T) {
	wide := make([][]PhaseID, 16)
	for k := range wide {
		for par := k - 3; par < k; par++ {
			if par >= 0 {
				wide[k] = append(wide[k], PhaseID(par))
			}
		}
	}
	for name, j := range map[string]*Job{
		"chain":    mapReduce(1, 0),
		"diamond":  dag(2, [][]PhaseID{nil, {0}, {0}, {1, 2}}),
		"16-phase": dag(3, wide),
	} {
		if err := j.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = j.Validate() }); got != 0 {
			t.Errorf("%s: Validate allocates %v objects per call, want 0", name, got)
		}
	}
}

// TestValidateAgreesWithTopoOrder: the allocation-free check and
// TopoOrder (which Validate falls back to above 64 phases) reach the
// same verdict on random DAGs, with and without an injected back edge.
func TestValidateAgreesWithTopoOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	cyclic := 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(80)
		// A random labelling, so parents do not simply precede children.
		label := rng.Perm(n)
		parents := make([][]PhaseID, n)
		for k := 1; k < n; k++ {
			for e := rng.Intn(4); e > 0; e-- {
				parents[label[k]] = append(parents[label[k]], PhaseID(label[rng.Intn(k)]))
			}
		}
		if n > 1 && trial%2 == 1 {
			// Back edge: an earlier phase takes a later one as parent.
			a := rng.Intn(n - 1)
			b := a + 1 + rng.Intn(n-1-a)
			parents[label[a]] = append(parents[label[a]], PhaseID(label[b]))
		}
		j := dag(JobID(trial), parents)
		_, want := j.TopoOrder()
		got := j.Validate()
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("trial %d (%d phases): Validate says %v, TopoOrder says %v", trial, n, got, want)
		}
		if want != nil {
			cyclic++
		}
	}
	if cyclic == 0 || cyclic == 2000 {
		t.Fatalf("%d of 2000 trials cyclic: the property saw only one verdict", cyclic)
	}
}

func TestTopoOrder(t *testing.T) {
	// Diamond: 0 → {1, 2} → 3.
	j := &Job{ID: 1, Phases: []Phase{
		{Name: "a", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 1},
		{Name: "b", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 1, Parents: []PhaseID{0}},
		{Name: "c", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 1, Parents: []PhaseID{0}},
		{Name: "d", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 1, Parents: []PhaseID{1, 2}},
	}}
	order, err := j.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[PhaseID]int)
	for i, k := range order {
		pos[k] = i
	}
	for k, p := range j.Phases {
		for _, par := range p.Parents {
			if pos[par] >= pos[PhaseID(k)] {
				t.Fatalf("parent %d after child %d in %v", par, k, order)
			}
		}
	}
}

func TestEffectiveDuration(t *testing.T) {
	p := Phase{MeanDuration: 10, SDDuration: 4}
	if got := p.EffectiveDuration(1.5); got != 16 {
		t.Errorf("e: %v", got)
	}
	if got := p.EffectiveDuration(0); got != 10 {
		t.Errorf("e(r=0): %v", got)
	}
}

func TestEffectiveVolume(t *testing.T) {
	total := resources.Cores(100, 200)
	j := mapReduce(1, 0)
	// map: 4 tasks × e=13 × d = max(1/100, 2/200)=0.01 → 0.52
	// reduce: 2 × e=7.5 × d = max(2/100, 4/200)=0.02 → 0.30
	want := 4*13*0.01 + 2*7.5*0.02
	if got := j.EffectiveVolume(total, 1.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("volume: got %v, want %v", got, want)
	}
}

func TestCriticalPath(t *testing.T) {
	j := mapReduce(1, 0)
	// chain: 13 + 7.5
	if got := j.CriticalPathLength(1.5); math.Abs(got-20.5) > 1e-12 {
		t.Errorf("cp: %v", got)
	}
	// Diamond where one branch is longer.
	d := &Job{ID: 2, Phases: []Phase{
		{Name: "a", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 5},
		{Name: "b", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 20, Parents: []PhaseID{0}},
		{Name: "c", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 3, Parents: []PhaseID{0}},
		{Name: "d", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 2, Parents: []PhaseID{1, 2}},
	}}
	if got := d.CriticalPathLength(0); got != 27 {
		t.Errorf("diamond cp: %v", got)
	}
}

func TestChainWiring(t *testing.T) {
	j := mapReduce(3, 7)
	if len(j.Phases[0].Parents) != 0 {
		t.Error("first phase should have no parents")
	}
	if len(j.Phases[1].Parents) != 1 || j.Phases[1].Parents[0] != 0 {
		t.Error("second phase should depend on first")
	}
	if j.Arrival != 7 || j.TotalTasks() != 6 {
		t.Errorf("arrival/tasks: %d/%d", j.Arrival, j.TotalTasks())
	}
}

func TestTaskRefString(t *testing.T) {
	r := TaskRef{Job: 3, Phase: 1, Index: 2}
	if r.String() != "j3/p1/t2" {
		t.Errorf("got %q", r.String())
	}
}

// Property: volume is monotone in r (more variance penalty, more volume).
func TestVolumeMonotoneInR(t *testing.T) {
	total := resources.Cores(100, 100)
	f := func(sd uint8, r1, r2 uint8) bool {
		j := SingleTask(1, 0, resources.Cores(1, 1), 10, float64(sd))
		a, b := float64(r1)/10, float64(r2)/10
		if a > b {
			a, b = b, a
		}
		return j.EffectiveVolume(total, a) <= j.EffectiveVolume(total, b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: critical path ≤ sum of all effective durations, and ≥ max
// single phase duration.
func TestCriticalPathBounds(t *testing.T) {
	f := func(d1, d2, d3 uint8) bool {
		m1, m2, m3 := float64(d1)+1, float64(d2)+1, float64(d3)+1
		j := Chain(1, "x", "x", 0, []Phase{
			{Name: "a", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: m1},
			{Name: "b", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: m2},
			{Name: "c", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: m3},
		})
		cp := j.CriticalPathLength(0)
		sum := m1 + m2 + m3
		return math.Abs(cp-sum) < 1e-9 // a chain's critical path is the total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
