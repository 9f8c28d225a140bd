package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
)

// scanFit is the reference the tree index is checked against: the
// linear scan FitTracker used to run, over a plain mirror of the free
// vectors. It answers with a fleet position.
type scanFit struct {
	free  []resources.Vector
	total resources.Vector
}

func (m *scanFit) reset(c *cluster.Cluster) {
	m.total = c.Total()
	m.free = m.free[:0]
	for _, s := range c.Servers() {
		m.free = append(m.free, s.Free())
	}
}

func (m *scanFit) place(pos int, demand resources.Vector) bool {
	if !demand.Fits(m.free[pos]) {
		return false
	}
	m.free[pos] = m.free[pos].Sub(demand)
	return true
}

func (m *scanFit) bestFit(demand resources.Vector) (int, bool) {
	best, bestScore := -1, -1.0
	for i, free := range m.free {
		if !demand.Fits(free) {
			continue
		}
		if s := demand.Dot(free, m.total); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best, best >= 0
}

// propertyFleet builds an n-server fleet: identical servers when uniform
// (every free vector ties until something is placed), three capacity
// classes otherwise; IDs dense, or strictly increasing with random gaps.
func propertyFleet(t *testing.T, rng *rand.Rand, n int, uniform, sparse bool) *cluster.Cluster {
	t.Helper()
	specs := make([]cluster.Spec, n)
	ids := make([]cluster.ServerID, n)
	next := cluster.ServerID(0)
	for i := range specs {
		capacity := resources.Cores(8, 16)
		if !uniform {
			capacity = []resources.Vector{
				resources.Cores(8, 16), resources.Cores(16, 32), resources.Cores(32, 64), resources.Cores(32, 16),
			}[rng.Intn(4)]
		}
		specs[i] = cluster.Spec{Name: fmt.Sprintf("s%d", i), Capacity: capacity, Speed: 1}
		if sparse {
			next += cluster.ServerID(rng.Intn(5))
		}
		ids[i] = next
		next++
	}
	c, err := cluster.NewWithIDs(specs, ids)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFitTrackerMatchesScan drives the tracker and the reference scan
// through long random interleavings of Place, BestFit, TotalFree and
// Reset and demands the same answer — same hit or miss, same server —
// from every query. Demands come from a short menu so exact ties and
// exact fills are the common case, and between Resets the ledger itself
// moves: allocations, releases, and failed servers, which show up as
// zero-free leaves.
//
// The packed shapes are the regime the miss frontier serves: the ledger
// is filled to the brim except for a sliver on two servers, queries
// come from a menu of sliver-sized demands holding a chain, so that a
// miss is followed by demands it dominates and by demands dominating
// it, and incomparable pairs, and a Reset is rare enough for an epoch
// to see dozens of them. At least nine queries in ten must miss. Each
// Reset follows releases, restores and a fresh pair of slivers, so
// demands that missed fit again.
func TestFitTrackerMatchesScan(t *testing.T) {
	menu := []resources.Vector{
		resources.Cores(1, 1), resources.Cores(1, 2), resources.Cores(2, 4), resources.Cores(4, 4),
		resources.Cores(8, 16), resources.Cores(16, 8), resources.Cores(32, 64), resources.Cores(64, 64),
		resources.Vec(500, 12*1024), resources.Vec(7000, 512),
	}
	packedMenu := []resources.Vector{
		resources.Vec(250, 256), resources.Vec(500, 512), resources.Vec(1000, 1024), resources.Vec(2000, 4096),
		resources.Vec(2000, 128), resources.Vec(128, 2048), resources.Vec(250, 2048), resources.Vec(2000, 256),
		resources.Vec(500, 128), resources.Vec(128, 512),
	}
	slivers := []resources.Vector{
		resources.Vec(300, 300), resources.Vec(200, 4096), resources.Vec(4000, 128), resources.Vec(600, 600), resources.Vec(1100, 1100),
	}
	sizes := []int{1, 2, 3, 5, 31, 32, 33, 200, 1000, 4096}
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range sizes {
			for _, shape := range []struct{ uniform, sparse, packed bool }{
				{false, false, false}, {true, false, false}, {false, true, false}, {true, true, false},
				{false, false, true}, {true, true, true},
			} {
				seed, n, shape, menu := seed, n, shape, menu
				name := fmt.Sprintf("seed=%d/n=%d/uniform=%v/sparse=%v", seed, n, shape.uniform, shape.sparse)
				if shape.packed {
					name += "/packed"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(seed*7919 + int64(n)))
					c := propertyFleet(t, rng, n, shape.uniform, shape.sparse)
					servers := c.Servers()
					held := make(map[cluster.ServerID][]resources.Vector)
					// r ≥ resetAt moves the ledger and re-snapshots.
					resetAt := 85
					// pack allocates every live server's free capacity but
					// a sliver on two of them.
					pack := func() {
						open := [2]int{rng.Intn(n), rng.Intn(n)}
						for i, s := range servers {
							d := s.Free()
							if i == open[0] || i == open[1] {
								if sl := slivers[rng.Intn(len(slivers))]; sl.Fits(d) {
									d = d.Sub(sl)
								}
							}
							if !s.Failed() && !d.IsZero() {
								if err := c.Allocate(s.ID, d); err != nil {
									t.Fatal(err)
								}
								held[s.ID] = append(held[s.ID], d)
							}
						}
					}
					if shape.packed {
						menu, resetAt = packedMenu, 98
						pack()
					}
					ft := NewFitTracker(c)
					ref := &scanFit{}
					ref.reset(c)
					queries, misses := 0, 0

					check := func(op string, d resources.Vector, gotID cluster.ServerID, gotOK bool, wantPos int, wantOK bool) {
						t.Helper()
						if gotOK != wantOK || (wantOK && gotID != servers[wantPos].ID) {
							want := cluster.ServerID(-1)
							if wantOK {
								want = servers[wantPos].ID
							}
							t.Fatalf("%s(%v): tracker %d/%v, scan %d/%v", op, d, gotID, gotOK, want, wantOK)
						}
					}
					steps := 1500
					if n >= 1000 {
						steps = 600
					}
					for step := 0; step < steps; step++ {
						d := menu[rng.Intn(len(menu))]
						switch r := rng.Intn(100); {
						case r < 45:
							id, ok := ft.BestFit(d)
							pos, wantOK := ref.bestFit(d)
							check("BestFit", d, id, ok, pos, wantOK)
							queries++
							if !ok {
								misses++
							}
							if ok && rng.Intn(4) > 0 { // usually consume the answer, as schedulers do
								if !ft.Place(id, d) || !ref.place(pos, d) {
									t.Fatalf("best fit %d does not take %v", id, d)
								}
							}
						case r < 75:
							pos := rng.Intn(n)
							if got, want := ft.Place(servers[pos].ID, d), ref.place(pos, d); got != want {
								t.Fatalf("Place(%d, %v): tracker %v, scan %v", servers[pos].ID, d, got, want)
							}
							if got := ft.Free(servers[pos].ID); got != ref.free[pos] {
								t.Fatalf("Free(%d): tracker %v, scan %v", servers[pos].ID, got, ref.free[pos])
							}
						case r < resetAt:
							var want resources.Vector
							for _, free := range ref.free {
								want = want.Add(free)
							}
							if got := ft.TotalFree(); got != want {
								t.Fatalf("TotalFree: tracker %v, scan %v", got, want)
							}
						default:
							// Move the ledger, then re-snapshot both sides.
							for i := 0; i < 1+n/8; i++ {
								s := servers[rng.Intn(n)]
								switch rng.Intn(4) {
								case 0:
									if h := held[s.ID]; len(h) > 0 {
										if err := c.Release(s.ID, h[len(h)-1]); err != nil {
											t.Fatal(err)
										}
										held[s.ID] = h[:len(h)-1]
									}
								case 1:
									if s.Failed() {
										c.Restore(s.ID)
									} else if len(held[s.ID]) == 0 || shape.packed {
										// Restore wipes the ledger: what the
										// server held is gone with it.
										c.Fail(s.ID)
										delete(held, s.ID)
									}
								default:
									if d := menu[rng.Intn(len(menu))]; !s.Failed() && c.Allocate(s.ID, d) == nil {
										held[s.ID] = append(held[s.ID], d)
									}
								}
							}
							if shape.packed {
								pack()
							}
							ft.Reset(c)
							ref.reset(c)
						}
					}
					if shape.packed && misses*10 < queries*9 {
						t.Errorf("packed shape: %d of %d BestFit queries missed, want ≥ 90 %%", misses, queries)
					}
					var sum resources.Vector
					for _, v := range ref.free {
						sum = sum.Add(v)
					}
					if got := ft.TotalFree(); got != sum {
						t.Fatalf("TotalFree: tracker %v, scan %v", got, sum)
					}
				})
			}
		}
	}
}

// TestFitTrackerRootFitsNoServer pins the one case where the root's
// bound lies: its component-wise maximum takes CPU from one server and
// memory from another, so a demand fits the root and no server.
func TestFitTrackerRootFitsNoServer(t *testing.T) {
	c := cluster.Uniform(5, resources.Cores(8, 16))
	ft := NewFitTracker(c)
	for id := cluster.ServerID(0); id < 5; id++ {
		d := resources.Cores(7, 1) // CPU gone, memory left
		if id%2 == 1 {
			d = resources.Cores(1, 15) // memory gone, CPU left
		}
		if !ft.Place(id, d) {
			t.Fatalf("place on %d", id)
		}
	}
	if id, ok := ft.BestFit(resources.Cores(4, 8)); ok {
		t.Fatalf("4c/8G fits no server, got %d", id)
	}
	if id, ok := ft.BestFit(resources.Cores(4, 1)); !ok || id != 1 {
		t.Fatalf("4c/1G: got %d/%v, want 1 (lowest of the tied CPU-rich servers)", id, ok)
	}
}

// TestFitTrackerMissFrontier pins what a miss teaches the tracker: every
// demand ≥ it is a miss without a search, smaller and incomparable
// demands are still searched, the frontier stays Pareto-minimal, and
// Reset forgets.
func TestFitTrackerMissFrontier(t *testing.T) {
	c := cluster.Uniform(4, resources.Cores(8, 16))
	ft := NewFitTracker(c)
	for id, sliver := range []resources.Vector{resources.Vec(2000, 1024), resources.Vec(500, 4096), {}, {}} {
		if !ft.Place(cluster.ServerID(id), resources.Cores(8, 16).Sub(sliver)) {
			t.Fatalf("fill server %d", id)
		}
	}
	for _, step := range []struct {
		demand   resources.Vector
		hit      bool
		frontier []resources.Vector
	}{
		// Fits the root's (2000, 4096) and neither sliver: a searched miss.
		{resources.Vec(1000, 2048), false, []resources.Vector{resources.Vec(1000, 2048)}},
		// ≥ the recorded miss, and the miss itself: the frontier answers.
		{resources.Vec(1500, 2048), false, []resources.Vector{resources.Vec(1000, 2048)}},
		{resources.Vec(1000, 2048), false, []resources.Vector{resources.Vec(1000, 2048)}},
		// Smaller: searched, and it fits server 0.
		{resources.Vec(1000, 1024), true, []resources.Vector{resources.Vec(1000, 2048)}},
		// Incomparable: searched, a second entry.
		{resources.Vec(3000, 512), false, []resources.Vector{resources.Vec(1000, 2048), resources.Vec(3000, 512)}},
		// A smaller miss evicts the entry it dominates.
		{resources.Vec(600, 1500), false, []resources.Vector{resources.Vec(3000, 512), resources.Vec(600, 1500)}},
		{resources.Vec(1000, 2048), false, []resources.Vector{resources.Vec(3000, 512), resources.Vec(600, 1500)}},
	} {
		if _, ok := ft.BestFit(step.demand); ok != step.hit {
			t.Fatalf("BestFit(%v): hit %v, want %v", step.demand, ok, step.hit)
		}
		if !slices.Equal(ft.misses, step.frontier) {
			t.Fatalf("after BestFit(%v): frontier %v, want %v", step.demand, ft.misses, step.frontier)
		}
	}

	// Free server 3 behind the tracker's back. A search would now find
	// it, so a miss can only have come from the frontier.
	ft.tree[ft.size+3], ft.built = resources.Cores(8, 16), false
	if id, ok := ft.BestFit(resources.Vec(700, 1500)); ok {
		t.Fatalf("a demand ≥ a recorded miss was searched: got server %d", id)
	}
	if id, ok := ft.BestFit(resources.Vec(2500, 1400)); !ok || id != 3 {
		t.Fatalf("a demand below the frontier was not searched: got %d/%v, want server 3", id, ok)
	}

	ft.Reset(c)
	if len(ft.misses) != 0 {
		t.Fatalf("Reset kept the frontier: %v", ft.misses)
	}
	if _, ok := ft.BestFit(resources.Vec(1000, 2048)); !ok {
		t.Fatal("a demand that missed before Reset does not fit the empty fleet")
	}
}

// TestFitTrackerNegativePlaceDropsFrontier pins the guard on the
// frontier's premise: a Place with a negative component grows a leaf,
// so what missed before may fit now — as the reference scan says.
func TestFitTrackerNegativePlaceDropsFrontier(t *testing.T) {
	c := cluster.Uniform(2, resources.Cores(1, 1))
	ft := NewFitTracker(c)
	ref := &scanFit{}
	ref.reset(c)
	d, grow := resources.Vec(1500, 512), resources.Vec(-1000, 0)
	if _, ok := ft.BestFit(d); ok {
		t.Fatalf("%v fits a 1-core server", d)
	}
	if got, want := ft.Place(1, grow), ref.place(1, grow); got != want || !got {
		t.Fatalf("Place(1, %v): tracker %v, scan %v", grow, got, want)
	}
	id, ok := ft.BestFit(d)
	pos, wantOK := ref.bestFit(d)
	if !wantOK || ok != wantOK || int(id) != pos {
		t.Fatalf("BestFit(%v) after the leaf grew: tracker %d/%v, scan %d/%v", d, id, ok, pos, wantOK)
	}
}

// TestFitTrackerSteadyStateAllocs pins the per-Schedule-call cycle at
// zero allocations once the tracker has seen its fleet — including on a
// sparse-ID fleet, where Reset used to rebuild the ID→position map, and
// including misses, which the frontier records in storage Reset keeps.
func TestFitTrackerSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sparse := range []bool{false, true} {
		c := propertyFleet(t, rng, 300, false, sparse)
		ft := NewFitTracker(c)
		d := resources.Cores(2, 4)
		allocs := testing.AllocsPerRun(50, func() {
			ft.Reset(c)
			for i := 0; i < 20; i++ {
				id, ok := ft.BestFit(d)
				if !ok || !ft.Place(id, d) {
					t.Fatal("no fit")
				}
			}
			// Two incomparable misses, then one that evicts the first.
			for _, big := range []resources.Vector{resources.Cores(64, 1), resources.Cores(1, 128), resources.Cores(48, 1)} {
				if _, ok := ft.BestFit(big); ok {
					t.Fatalf("%v fits", big)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("sparse=%v: %v allocs per Reset+BestFit+Place cycle, want 0", sparse, allocs)
		}
	}
}
