package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"testing"

	"dollymp/internal/resources"
)

// headModel is the reference the index is tested against: every head
// in member order, answered by the linear scan the index replaced.
type headModel struct {
	recs   []*jobRec // member order; seq is the position
	demand []resources.Vector
	live   []bool
	total  resources.Vector
}

// best is the old new-task pass's argmax, verbatim: first maximum of
// demand·free over the fitting heads, in member order.
func (m *headModel) best(free resources.Vector) *jobRec {
	var best *jobRec
	bestScore := -1.0
	for i, r := range m.recs {
		if !m.live[i] || !m.demand[i].Fits(free) {
			continue
		}
		if score := m.demand[i].Dot(free, m.total); score > bestScore {
			bestScore, best = score, r
		}
	}
	return best
}

// headGen draws demands and free vectors for one test shape.
type headGen struct {
	rng *rand.Rand
	// shapes, when set, is the whole demand population: a handful of
	// vectors shared by every member, so nearly every query is a tie.
	shapes []resources.Vector
}

func (g *headGen) demand() resources.Vector {
	if g.shapes != nil {
		return g.shapes[g.rng.Intn(len(g.shapes))]
	}
	return resources.Vec(100+int64(g.rng.Intn(4000)), 128+int64(g.rng.Intn(8000)))
}

// free draws a server's remaining capacity: roomy, tight, exactly a
// demand, a demand short or over by one unit in one dimension only,
// and empty in one dimension.
func (g *headGen) free(m *headModel) resources.Vector {
	d := m.demand[g.rng.Intn(len(m.demand))]
	switch g.rng.Intn(10) {
	case 0:
		return resources.Vec(8000, 16000)
	case 1:
		return d
	case 2:
		return resources.Vec(d.CPUMilli-1, d.MemMiB)
	case 3:
		return resources.Vec(d.CPUMilli, d.MemMiB-1)
	case 4:
		return resources.Vec(d.CPUMilli+1, d.MemMiB*3)
	case 5:
		return resources.Vec(d.CPUMilli*3, d.MemMiB+1)
	case 6:
		return resources.Vec(0, 16000)
	case 7:
		return resources.Vec(8000, 0)
	default:
		return resources.Vec(int64(g.rng.Intn(5000)), int64(g.rng.Intn(10000)))
	}
}

// TestHeadIndexMatchesScan drives a head index and the linear scan it
// replaced through long random interleavings of everything Schedule
// does to a class — query, place (the head stays, moves to a new
// demand, or drains), drain, revive, arrival (overflow insert),
// finished-job removal, and the wholesale regroup of a priority
// recompute — and demands the same member from both at every query.
func TestHeadIndexMatchesScan(t *testing.T) {
	few := []resources.Vector{
		resources.Cores(1, 1), resources.Cores(1, 2), resources.Cores(2, 1),
		resources.Cores(2, 4), resources.Cores(1, 1), resources.Cores(3, 3),
	}
	for _, n := range []int{1, 2, leafSize - 1, leafSize, leafSize + 1, 2*leafSize + 1, 1000, 20000} {
		for _, tied := range []bool{false, true} {
			for seed := int64(1); seed <= 2; seed++ {
				n, tied, seed := n, tied, seed
				t.Run(fmt.Sprintf("n=%d/tied=%v/seed=%d", n, tied, seed), func(t *testing.T) {
					t.Parallel()
					g := &headGen{rng: rand.New(rand.NewSource(seed*1000 + int64(n)))}
					if tied {
						g.shapes = few
					}
					runHeadIndexModel(t, g, n)
				})
			}
		}
	}
}

func runHeadIndexModel(t *testing.T, g *headGen, n int) {
	total := resources.Cores(3280, 6480)
	norm := resources.NormOf(total)
	m := &headModel{total: total}
	var x headIndex

	// regroup is what a priority recompute does to a class: the live
	// members renumbered in order and the index rebuilt from scratch.
	regroup := func() {
		w := 0
		for i, r := range m.recs {
			if r == nil {
				continue // finished
			}
			m.recs[w], m.demand[w], m.live[w] = r, m.demand[i], m.live[i]
			w++
		}
		m.recs, m.demand, m.live = m.recs[:w], m.demand[:w], m.live[:w]
		x.reset()
		for i, r := range m.recs {
			r.seq, r.where = uint32(i), 0
			if m.live[i] {
				x.stage(r, m.demand[i])
			}
		}
		x.build()
	}
	arrive := func() {
		r := &jobRec{seq: uint32(len(m.recs))}
		m.recs = append(m.recs, r)
		m.demand = append(m.demand, g.demand())
		m.live = append(m.live, true)
	}
	for i := 0; i < n; i++ {
		arrive()
	}
	regroup()

	// set moves member i's head in model and index alike.
	set := func(i int, d resources.Vector, ok bool) {
		m.demand[i], m.live[i] = d, ok
		x.set(m.recs[i], d, ok)
	}
	pick := func() int {
		for {
			if i := g.rng.Intn(len(m.recs)); m.recs[i] != nil {
				return i
			}
		}
	}
	check := func(step int, free resources.Vector) *jobRec {
		got, want := x.best(free, norm), m.best(free)
		if got != want {
			t.Fatalf("step %d, free %+v: index picked %s, scan %s", step, free, describe(m, got), describe(m, want))
		}
		return got
	}

	steps := 3000
	if n >= 1000 {
		steps = 1200 // the reference scan is O(n) a query
	}
	for step := 0; step < steps; step++ {
		live := 0
		for _, ok := range m.live {
			if ok {
				live++
			}
		}
		if got := x.live; got != live {
			t.Fatalf("step %d: index counts %d live heads, model %d", step, got, live)
		}
		checkLeaves(t, step, &x)
		switch op := g.rng.Intn(40); {
		case op < 16: // a server drinks from the class until nothing fits
			free := g.free(m)
			for {
				r := check(step, free)
				if r == nil {
					break
				}
				i := int(r.seq)
				free = free.Sub(m.demand[i])
				switch g.rng.Intn(4) {
				case 0: // next task of the same phase
					set(i, m.demand[i], true)
				case 1: // next phase
					set(i, g.demand(), true)
				default: // that was the job's last pending task
					set(i, resources.Vector{}, false)
				}
			}
		case op < 22:
			check(step, g.free(m))
		case op < 26: // a job's tasks all run: it drains between calls
			set(pick(), resources.Vector{}, false)
		case op < 32: // a phase completes, or a failure returns a task
			set(pick(), g.demand(), true)
		case op < 35: // arrival, indexed without a regroup
			arrive()
			i := len(m.recs) - 1
			x.insert(m.recs[i], m.demand[i])
		case op < 39: // a job finishes
			present := 0
			for _, r := range m.recs {
				if r != nil {
					present++
				}
			}
			if present > 1 {
				i := pick()
				x.remove(m.recs[i])
				m.recs[i], m.live[i] = nil, false
			}
		default:
			for k := g.rng.Intn(3); k > 0; k-- {
				arrive()
			}
			regroup()
		}
	}
}

func describe(m *headModel, r *jobRec) string {
	if r == nil {
		return "nobody"
	}
	return fmt.Sprintf("member %d (demand %+v)", r.seq, m.demand[r.seq])
}

// TestHeadIndexSplitsAtMedian builds indexes over demand orders that
// trouble a quickselect — all equal, sorted, reverse-sorted, organ-pipe —
// at sizes around one leaf and far past it, and checks every internal
// node: no entry left of the cut is greater on the node's axis than any
// entry right of it, and every record points at its own entry. None of
// these orders may need the depth guard's sort.
func TestHeadIndexSplitsAtMedian(t *testing.T) {
	orders := map[string]func(i, n int) resources.Vector{
		"equal":   func(i, n int) resources.Vector { return resources.Vec(2000, 4096) },
		"sorted":  func(i, n int) resources.Vector { return resources.Vec(int64(100+i), int64(128+2*i)) },
		"reverse": func(i, n int) resources.Vector { return resources.Vec(int64(100+n-i), int64(128+2*(n-i))) },
		"organ-pipe": func(i, n int) resources.Vector {
			v := int64(min(i, n-1-i))
			return resources.Vec(100+v, 128+3*v)
		},
	}
	for name, order := range orders {
		for _, n := range []int{1, leafSize - 1, leafSize + 1, 1000, 20000} {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				x := buildOver(n, func(i int) resources.Vector { return order(i, n) })
				checkSplits(t, &x)
				if x.stats.sorted != 0 {
					t.Fatalf("%d levels fell back to a sort", x.stats.sorted)
				}
			})
		}
	}
}

// TestHeadIndexDepthGuard builds an index over the demand order that
// McIlroy's adversary ("A Killer Adversary for Quicksort") draws from
// selectNth itself: each comparison freezes the pivot candidate at the
// lowest value still free, so every round cuts off only a few entries.
// The guard must trip and leave a correct split.
func TestHeadIndexDepthGuard(t *testing.T) {
	const n = 20000
	gas := int64(n)
	val := make([]int64, n)
	for i := range val {
		val[i] = gas
	}
	frozen, candidate := int64(0), -1
	adversary := func(a, b headEnt) int {
		x, y := int(a.seq), int(b.seq)
		if val[x] == gas && val[y] == gas {
			if x == candidate {
				val[x] = frozen
			} else {
				val[y] = frozen
			}
			frozen++
		}
		if val[x] == gas {
			candidate = x
		} else if val[y] == gas {
			candidate = y
		}
		return cmp.Compare(val[x], val[y])
	}
	ents := make([]headEnt, n)
	for i := range ents {
		ents[i].seq = uint32(i)
	}
	if !selectNth(ents, n/2, adversary) {
		t.Fatal("the adversary's order did not trip the depth guard")
	}
	// The values the adversary settled on answer every comparison it
	// made, so the index's own CPU split at the root takes the same path.
	x := buildOver(n, func(i int) resources.Vector { return resources.Vec(100+val[i], 128+val[i]) })
	if x.stats.sorted == 0 {
		t.Fatal("the build over the adversary's order did not fall back to a sort")
	}
	checkSplits(t, &x)
}

// buildOver builds an index over n members whose heads have demand(i)
// in member order.
func buildOver(n int, demand func(i int) resources.Vector) headIndex {
	var x headIndex
	for i := 0; i < n; i++ {
		x.stage(&jobRec{seq: uint32(i)}, demand(i))
	}
	x.build()
	return x
}

// checkLeaves checks that every leaf's live entries lead its range,
// each where its record points, and that the slots after them are zero:
// what lets a search scan a leaf's live entries only.
func checkLeaves(t *testing.T, step int, x *headIndex) {
	t.Helper()
	var walk func(n, lo, hi int)
	walk = func(n, lo, hi int) {
		if hi-lo > leafSize {
			mid := lo + (hi-lo)/2
			walk(2*n+1, lo, mid)
			walk(2*n+2, mid, hi)
			return
		}
		live := lo + int(x.nodes[n].live)
		for i := lo; i < hi; i++ {
			e := x.ents[i]
			if i < live && (e.rec == nil || int(e.rec.where) != i+1) {
				t.Fatalf("step %d: leaf [%d, %d) with %d live: entry %d is not where its record points", step, lo, hi, live-lo, i)
			}
			if i >= live && e != (headEnt{}) {
				t.Fatalf("step %d: leaf [%d, %d) with %d live: slot %d past them holds an entry", step, lo, hi, live-lo, i)
			}
		}
	}
	walk(0, 0, len(x.ents))
}

// checkSplits walks the implicit tree as split laid it out.
func checkSplits(t *testing.T, x *headIndex) {
	t.Helper()
	key := func(e headEnt, axis int) int64 {
		if axis == 0 {
			return e.demand.CPUMilli
		}
		return e.demand.MemMiB
	}
	for i, e := range x.ents {
		if e.rec == nil || int(e.rec.where) != i+1 {
			t.Fatalf("entry %d is not where its record points", i)
		}
	}
	var walk func(lo, hi, axis int)
	walk = func(lo, hi, axis int) {
		if hi-lo <= leafSize {
			return
		}
		mid := lo + (hi-lo)/2
		left := key(x.ents[lo], axis)
		for _, e := range x.ents[lo:mid] {
			left = max(left, key(e, axis))
		}
		for _, e := range x.ents[mid:hi] {
			if key(e, axis) < left {
				t.Fatalf("node over [%d, %d): axis %d value %d right of the cut, %d left of it", lo, hi, axis, key(e, axis), left)
			}
		}
		walk(lo, mid, 1-axis)
		walk(mid, hi, 1-axis)
	}
	walk(0, len(x.ents), 0)
}
