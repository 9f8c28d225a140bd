package sched

import (
	"fmt"
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

// FirstReadyPendingTask returns the first schedulable task of a job, or
// false if none exists.
func FirstReadyPendingTask(js *workload.JobState) (PendingTask, bool) {
	for _, k := range js.ReadyPhases() {
		pend := js.PendingTasks(k)
		if len(pend) > 0 {
			return PendingTask{
				Ref:    workload.TaskRef{Job: js.Job.ID, Phase: k, Index: pend[0]},
				Demand: js.Job.Phases[k].Demand,
			}, true
		}
	}
	return PendingTask{}, false
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
// BestFit searches the tree branch-and-bound instead of scanning the
// fleet.
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
	tree    []resources.Vector
	// size is the leaf offset: the smallest power of two ≥ len(servers).
	// Leaves past the fleet hold (-1, -1), which no demand fits.
	size int
	// built reports whether the internal nodes reflect the leaves. Reset
	// clears it and the first BestFit rebuilds, so a Schedule call that
	// never asks for a best fit pays only the leaf snapshot.
	built bool
	// misses is the miss frontier: the Pareto-minimal demands BestFit
	// has failed to fit since the last Reset. A packed fleet's queued
	// jobs share a handful of shapes, so it stays a few dozen entries.
	misses []resources.Vector
	// index maps server ID to fleet position when IDs are sparse;
	// nil while IDs are dense (position == ID).
	index map[cluster.ServerID]int
}

// NewFitTracker creates a tracker over the cluster's current free state.
func NewFitTracker(c *cluster.Cluster) *FitTracker {
	f := &FitTracker{}
	f.Reset(c)
	return f
}

// Reset re-snapshots the cluster's free capacities, dropping every
// tentative placement and every recorded miss, so one tracker can serve
// many Schedule calls without reallocating: the tree and the sparse-ID
// index are rebuilt only when the tracker is pointed at a different
// fleet.
func (f *FitTracker) Reset(c *cluster.Cluster) {
	servers := c.Servers()
	if len(servers) != len(f.servers) || &servers[0] != &f.servers[0] {
		f.bind(servers)
	}
	f.norm = resources.NormOf(c.Total())
	for i, s := range servers {
		f.tree[f.size+i] = s.Free()
	}
	f.built = false
	f.misses = f.misses[:0]
}

// bind sizes the tree and the position index for a fleet. A cluster
// never changes its server slice after construction, so Reset tells
// fleets apart by that slice's identity.
func (f *FitTracker) bind(servers []*cluster.Server) {
	f.servers = servers
	f.size = 1
	for f.size < len(servers) {
		f.size *= 2
	}
	f.tree = make([]resources.Vector, 2*f.size)
	for i := f.size + len(servers); i < len(f.tree); i++ {
		f.tree[i] = resources.Vec(-1, -1)
	}
	f.index = nil
	for i, s := range servers {
		if int(s.ID) != i {
			f.index = make(map[cluster.ServerID]int, len(servers))
			break
		}
	}
	if f.index != nil {
		for i, s := range servers {
			f.index[s.ID] = i
		}
	}
}

func (f *FitTracker) pos(id cluster.ServerID) int {
	if f.index == nil {
		return int(id)
	}
	if i, ok := f.index[id]; ok {
		return i
	}
	panic(fmt.Sprintf("sched: unknown server %d", id))
}

// leaves returns the free vectors in fleet order.
func (f *FitTracker) leaves() []resources.Vector {
	return f.tree[f.size : f.size+len(f.servers)]
}

// Free returns the remaining capacity of a server after tentative
// placements.
func (f *FitTracker) Free(id cluster.ServerID) resources.Vector {
	return f.tree[f.size+f.pos(id)]
}

// Fits reports whether demand fits server id now.
func (f *FitTracker) Fits(id cluster.ServerID, demand resources.Vector) bool {
	return demand.Fits(f.Free(id))
}

// Place tentatively consumes demand on server id. It returns false
// without consuming if the demand does not fit. Once the tree is built
// the shrunken leaf is propagated toward the root, stopping at the
// first ancestor whose maximum another leaf already held.
func (f *FitTracker) Place(id cluster.ServerID, demand resources.Vector) bool {
	n := f.size + f.pos(id)
	if !demand.Fits(f.tree[n]) {
		return false
	}
	f.tree[n] = f.tree[n].Sub(demand)
	if !demand.IsValid() {
		f.misses = f.misses[:0] // the leaf may have grown
	}
	if f.built {
		for n /= 2; n >= 1; n /= 2 {
			m := f.tree[2*n].Max(f.tree[2*n+1])
			if m == f.tree[n] {
				break
			}
			f.tree[n] = m
		}
	}
	return true
}

// fitSearch is the state of one BestFit search: the best leaf found so
// far (a tree index; 0 while none) and its score (-1 while none, below
// any real score, as demand·free is never negative).
type fitSearch struct {
	demand resources.Vector
	best   int
	score  float64
}

// BestFit returns the fitting server maximizing demand·free, or false.
// Ties break toward the lower server ID (fleet order).
//
// The answer is exact. Dot is monotone in its second argument for a
// non-negative demand (IEEE multiplication, division by a positive
// constant and addition all preserve ≤), so demand·tree[n] bounds the
// score of every leaf under n from above, and a demand that does not
// fit tree[n] fits no leaf under it. The search therefore drops a
// subtree only when it cannot hold a strictly better (score, position)
// pair than the one in hand, and a root that does not fit is a miss
// without touching a leaf. A demand ≥ one on the miss frontier is a
// miss without touching the tree (see FitTracker).
func (f *FitTracker) BestFit(demand resources.Vector) (cluster.ServerID, bool) {
	for _, m := range f.misses {
		if m.Fits(demand) {
			return 0, false
		}
	}
	if !f.built {
		for n := f.size - 1; n >= 1; n-- {
			f.tree[n] = f.tree[2*n].Max(f.tree[2*n+1])
		}
		f.built = true
	}
	s := fitSearch{demand: demand, score: -1}
	if ub := f.bound(&s, 1); ub >= 0 {
		f.search(&s, 1, f.size, ub)
	}
	if s.best == 0 {
		// Nothing fits — or the root's maximum took its CPU from one
		// server and its memory from another. Record the miss in place
		// of the frontier entries it makes redundant (those ≥ it; none
		// is ≤ it, or the frontier would have answered).
		f.misses = append(slices.DeleteFunc(f.misses, demand.Fits), demand)
		return 0, false
	}
	return f.servers[s.best-f.size].ID, true
}

// search explores node n, whose subtree spans `span` leaves and whose
// bound ub the caller found admissible. It descends into the child with
// the higher bound first — a greedy dive that reaches a strong
// candidate in log n steps — and re-tests the other child against
// whatever that dive found.
func (f *FitTracker) search(s *fitSearch, n, span int, ub float64) {
	if span == 1 {
		s.best, s.score = n, ub
		return
	}
	span /= 2
	l, r := 2*n, 2*n+1
	lub, rub := f.bound(s, l), f.bound(s, r)
	if rub > lub {
		l, r, lub, rub = r, l, rub, lub
	}
	if s.admits(l*span, lub) {
		f.search(s, l, span, lub)
	}
	if s.admits(r*span, rub) {
		f.search(s, r, span, rub)
	}
}

// bound returns demand·tree[n], an upper bound on the score of every
// leaf under n, or -1 when the demand fits nothing there.
func (f *FitTracker) bound(s *fitSearch, n int) float64 {
	if !s.demand.Fits(f.tree[n]) {
		return -1
	}
	return f.norm.Dot(s.demand, f.tree[n])
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
