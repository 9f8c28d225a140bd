package core

import (
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
