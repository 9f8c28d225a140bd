package sched

import (
	"math"
	"slices"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// PendingTask is one schedulable unit: a pending task of a ready phase.
type PendingTask struct {
	Ref    workload.TaskRef
	Demand resources.Vector
}

// ReadyPendingTasks lists the pending tasks of all ready phases of a job,
// in phase order. For jobs with multiple ready phases, earlier phases
// come first (matching Algorithm 2, which schedules "the first available
// phase" of each job before later ones).
func ReadyPendingTasks(js *workload.JobState) []PendingTask {
	var out []PendingTask
	for _, k := range js.ReadyPhases() {
		demand := js.Job.Phases[k].Demand
		for _, l := range js.PendingTasks(k) {
			out = append(out, PendingTask{
				Ref:    workload.TaskRef{Job: js.Job.ID, Phase: k, Index: l},
				Demand: demand,
			})
		}
	}
	return out
}

// FitTracker overlays tentative placements on the cluster's free
// capacities so a scheduler can plan a whole batch without mutating the
// engine-owned cluster state. It snapshots the free vectors at Reset
// (schedulers plan against a frozen decision point — the engine never
// mutates the ledger mid-call), which turns every query into a slice
// read instead of a map lookup plus a live ledger read.
//
// The snapshot is the leaf level of a position-ordered tournament tree:
// tree[size+i] is the free vector of the server at fleet position i,
// and tree[n] for n < size is the component-wise maximum of tree[2n]
// and tree[2n+1] — an upper bound on every free vector beneath it.
// Beside it, sums[n] is the largest normalised sum cpu/T_cpu + mem/T_mem
// of a leaf beneath n, T being the cluster total. BestFit searches the
// tree branch-and-bound instead of scanning the fleet.
//
// Between two Resets no free vector ever grows: Place only subtracts,
// and validated demands are non-negative. The miss frontier depends on
// it — a demand that fit no server still fits none, and neither does
// any demand component-wise ≥ it, so BestFit answers those from the
// frontier without a search. A Place that breaks the rule (a demand
// with a negative component) drops the frontier.
//
// A tracker is confined to one goroutine, like the scheduler that owns
// it.
type FitTracker struct {
	servers []*cluster.Server
	norm    resources.Norm
	// cpuScale and memScale are 1/T_cpu and 1/T_mem.
	cpuScale, memScale float64
	tree               []resources.Vector
	// sums are floats: the bound's slack covers their rounding, and
	// unlike the integer cpu·T_mem + mem·T_cpu they cannot overflow,
	// not even for a leaf a negative Place has grown.
	sums []float64
	// size is the leaf offset: the smallest power of two ≥ len(servers).
	// Leaves past the fleet hold (-1, -1), which no demand fits, and a
	// sum of -Inf.
	size int
	// built reports whether the internal nodes and the leaf sums reflect
	// the leaves. Reset clears it and the first BestFit rebuilds, so a
	// Schedule call that never asks for a best fit pays only the leaf
	// snapshot.
	built bool
	// misses is the miss frontier: the Pareto-minimal demands BestFit
	// has failed to fit since the last Reset. A packed fleet's queued
	// jobs share a handful of shapes, so it stays a few dozen entries.
	misses []resources.Vector
	stats  FitStats
}

// FitStats counts a tracker's BestFit work since it was created; Reset
// keeps the counts. Every call is answered by exactly one of the miss
// frontier, a root miss or a search, and a search ends in a hit or a
// miss.
type FitStats struct {
	// Calls counts BestFit calls.
	Calls uint64
	// Frontier counts the misses the miss frontier answered.
	Frontier uint64
	// RootMisses counts the misses whose demand does not fit the root.
	RootMisses uint64
	// Searches counts the calls that descended the tree.
	Searches uint64
	// Hits counts the calls that found a server.
	Hits uint64
	// Nodes counts the tree nodes the searches entered, root and leaves
	// included.
	Nodes uint64
}

// FitStatsOf returns a tracker's work counts. It is a function, not a
// method, so that the facade's FitTracker alias does not carry it: the
// counts are for this module's tests and profiles, not SDK surface.
func FitStatsOf(f *FitTracker) FitStats { return f.stats }

// NewFitTracker creates a tracker over the cluster's current free state.
func NewFitTracker(c *cluster.Cluster) *FitTracker {
	f := &FitTracker{}
	f.Reset(c)
	return f
}

// Reset re-snapshots the cluster's free capacities, dropping every
// tentative placement and every recorded miss, so one tracker can serve
// many Schedule calls without reallocating: the tree is rebuilt only
// when the tracker is pointed at a different fleet.
func (f *FitTracker) Reset(c *cluster.Cluster) {
	servers := c.Servers()
	if len(servers) != len(f.servers) || &servers[0] != &f.servers[0] {
		f.bind(servers)
	}
	total := c.Total()
	f.norm = resources.NormOf(total)
	f.cpuScale, f.memScale = 1/float64(total.CPUMilli), 1/float64(total.MemMiB)
	for i, s := range servers {
		f.tree[f.size+i] = s.Free()
	}
	f.built = false
	f.misses = f.misses[:0]
}

// bind sizes the tree for a fleet. A cluster never changes its server
// slice after construction, so Reset tells fleets apart by that slice's
// identity.
func (f *FitTracker) bind(servers []*cluster.Server) {
	f.servers = servers
	f.size = 1
	for f.size < len(servers) {
		f.size *= 2
	}
	f.tree = make([]resources.Vector, 2*f.size)
	f.sums = make([]float64, 2*f.size)
	for i := f.size + len(servers); i < len(f.tree); i++ {
		f.tree[i] = resources.Vec(-1, -1)
		f.sums[i] = math.Inf(-1)
	}
}

// build brings the leaf sums and the internal nodes in line with the
// leaves.
func (f *FitTracker) build() {
	for n := f.size; n < f.size+len(f.servers); n++ {
		f.sums[n] = f.sum(f.tree[n])
	}
	for n := f.size - 1; n >= 1; n-- {
		f.tree[n] = f.tree[2*n].Max(f.tree[2*n+1])
		f.sums[n] = max(f.sums[2*n], f.sums[2*n+1])
	}
	f.built = true
}

// sum returns v's normalised sum cpu/T_cpu + mem/T_mem.
func (f *FitTracker) sum(v resources.Vector) float64 {
	return float64(v.CPUMilli)*f.cpuScale + float64(v.MemMiB)*f.memScale
}

// leaves returns the free vectors in fleet order.
func (f *FitTracker) leaves() []resources.Vector {
	return f.tree[f.size : f.size+len(f.servers)]
}

// Free returns the remaining capacity of a server after tentative
// placements.
func (f *FitTracker) Free(id cluster.ServerID) resources.Vector {
	return f.tree[f.size+int(id)]
}

// Fits reports whether demand fits server id now.
func (f *FitTracker) Fits(id cluster.ServerID, demand resources.Vector) bool {
	return demand.Fits(f.Free(id))
}

// Place tentatively consumes demand on server id. It returns false
// without consuming if the demand does not fit. Once the tree is built
// the shrunken leaf is propagated toward the root, stopping at the
// first ancestor whose maximum and sum other leaves already held.
func (f *FitTracker) Place(id cluster.ServerID, demand resources.Vector) bool {
	n := f.size + int(id)
	if !demand.Fits(f.tree[n]) {
		return false
	}
	f.tree[n] = f.tree[n].Sub(demand)
	if !demand.IsValid() {
		f.misses = f.misses[:0] // the leaf may have grown
	}
	if f.built {
		f.sums[n] = f.sum(f.tree[n])
		for n /= 2; n >= 1; n /= 2 {
			m, s := f.tree[2*n].Max(f.tree[2*n+1]), max(f.sums[2*n], f.sums[2*n+1])
			if m == f.tree[n] && s == f.sums[n] {
				break
			}
			f.tree[n], f.sums[n] = m, s
		}
	}
	return true
}

// boundSlack is the relative margin bound adds, so that its roundings
// can never put it below a leaf's exact score: each rounding is a
// relative error of 2⁻⁵³ on a non-negative term, and there are fewer
// than twenty between the demand and either value.
const boundSlack = 1e-9

// fitSearch is the state of one BestFit search: the weights of the
// bound (see bound), and the best leaf found so far (a tree index; 0
// while none) with its score (-1 while none, below any real score, as
// demand·free is never negative).
type fitSearch struct {
	demand           resources.Vector
	wSum, wCPU, wMem float64
	best             int
	score            float64
}

// BestFit returns the fitting server maximizing demand·free, or false.
// Ties break toward the lower server ID (fleet order).
//
// The answer is exact for a non-negative demand. bound(n) is at least
// the score of every leaf under n, and a demand that does not fit
// tree[n] fits no leaf under it. The search therefore drops a subtree
// only when it cannot hold a strictly better (score, position) pair
// than the one in hand, and a leaf replaces the best only on its exact
// score, so the bound's slack costs visits, never the answer. A root
// that does not fit is a miss without touching a leaf. A demand ≥ one
// on the miss frontier is a miss without touching the tree (see
// FitTracker).
func (f *FitTracker) BestFit(demand resources.Vector) (cluster.ServerID, bool) {
	f.stats.Calls++
	for _, m := range f.misses {
		if m.Fits(demand) {
			f.stats.Frontier++
			return 0, false
		}
	}
	if !f.built {
		f.build()
	}
	// The demand's normalised weights (α, β) make a leaf's score
	// α·cpu/T_cpu + β·mem/T_mem. With α ≥ β that is
	// β·(normalised sum) + (α−β)·cpu/T_cpu, and symmetrically for β > α.
	const up = 1 + boundSlack
	s := fitSearch{demand: demand, score: -1}
	alpha, beta := float64(demand.CPUMilli)*f.cpuScale, float64(demand.MemMiB)*f.memScale
	if alpha >= beta {
		s.wSum, s.wCPU = beta*up, (alpha-beta)*f.cpuScale*up
	} else {
		s.wSum, s.wMem = alpha*up, (beta-alpha)*f.memScale*up
	}
	if ub := f.bound(&s, 1); ub >= 0 {
		f.stats.Searches++
		f.visit(&s, 1, f.size, ub)
	} else {
		f.stats.RootMisses++
	}
	if s.best == 0 {
		// Nothing fits — or the root's maximum took its CPU from one
		// server and its memory from another. Record the miss in place
		// of the frontier entries it makes redundant (those ≥ it; none
		// is ≤ it, or the frontier would have answered).
		f.misses = append(slices.DeleteFunc(f.misses, demand.Fits), demand)
		return 0, false
	}
	f.stats.Hits++
	return cluster.ServerID(s.best - f.size), true
}

// search explores internal node n, whose children span `span` leaves
// each. It descends into the child with the higher bound first — a
// greedy dive that reaches a strong candidate in log n steps — and
// re-tests the other child against whatever that dive found.
func (f *FitTracker) search(s *fitSearch, n, span int) {
	f.stats.Nodes++
	l, r := 2*n, 2*n+1
	lub, rub := f.bound(s, l), f.bound(s, r)
	if rub > lub {
		l, r, lub, rub = r, l, rub, lub
	}
	f.visit(s, l, span, lub)
	f.visit(s, r, span, rub)
}

// visit enters node n, spanning `span` leaves, if its bound ub admits
// it and the best in hand does not dominate it. A leaf replaces the best
// in hand only on its exact score.
//
// Dominance settles the near-ties the bound cannot: on a fleet of
// identical servers every subtree's bound is the best leaf's score plus
// the slack, so the bound alone admits the whole tree. A subtree whose
// component-wise maximum is ≤ the best leaf's free vector holds no leaf
// that scores higher (demand·free is monotone in free for a non-negative
// demand, and so is its rounding), and when its leftmost leaf lies right
// of the best, a tie loses on position too.
func (f *FitTracker) visit(s *fitSearch, n, span int, ub float64) {
	first := n * span
	if !s.admits(first, ub) || s.best != 0 && first > s.best && f.tree[n].Fits(f.tree[s.best]) {
		return
	}
	if span == 1 {
		f.stats.Nodes++
		if score := f.norm.Dot(s.demand, f.tree[n]); s.admits(n, score) {
			s.best, s.score = n, score
		}
		return
	}
	f.search(s, n, span/2)
}

// bound returns an upper bound on the score of every leaf under n, or
// -1 when the demand fits nothing there: the demand's weights applied
// to the largest sum and the largest heavier-weighted component under
// n, which the leaf holding either need not share with the other, and
// scaled up by boundSlack.
func (f *FitTracker) bound(s *fitSearch, n int) float64 {
	v := f.tree[n]
	if !s.demand.Fits(v) {
		return -1
	}
	return s.wSum*f.sums[n] + s.wCPU*float64(v.CPUMilli) + s.wMem*float64(v.MemMiB)
}

// admits reports whether a subtree whose leftmost leaf is `first` and
// whose scores are at most ub could still beat the best in hand: a
// higher score, or the same score at a lower fleet position.
func (s *fitSearch) admits(first int, ub float64) bool {
	return ub > s.score || (ub == s.score && first < s.best)
}

// TotalFree returns cluster-wide free capacity after tentative
// placements.
func (f *FitTracker) TotalFree() resources.Vector {
	var free resources.Vector
	for _, v := range f.leaves() {
		free = free.Add(v)
	}
	return free
}

// RemainingVolume returns the job's unfinished effective volume (Eq. 16),
// a shared priority input for SVF-style policies.
func RemainingVolume(js *workload.JobState, total resources.Vector, r float64) float64 {
	return js.UpdatedVolume(total, r)
}

// RemainingTime returns the job's unfinished critical-path length
// (Eq. 17), the SRPT priority input.
func RemainingTime(js *workload.JobState, r float64) float64 {
	return js.UpdatedProcessingTime(r)
}
