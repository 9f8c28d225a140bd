// Package core implements the DollyMP scheduler: the transient
// knapsack-priority procedure of Algorithm 1 and the online multi-
// resource scheduling process with task cloning of Algorithm 2.
//
// The key idea (§4.2): jobs are bucketed into geometric deadline classes
// 2^l by effective processing time, and within each class a unit-profit
// knapsack packs as many jobs as possible by effective volume. The class
// at which a job is first packed is its priority — small-and-packable
// jobs come first (the SRPT/SVF blend), yet every job inside a class is
// treated equally, avoiding both SRPT's fragmentation and SVF's
// starvation of large jobs.
package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"dollymp/internal/workload"
)

// JobInfo is Algorithm 1's per-job input: the (possibly updated) volume
// v_j(t) of Eq. (16), the remaining effective processing time e_j(t) of
// Eq. (17), and the job's largest per-task dominant share.
type JobInfo struct {
	ID workload.JobID
	// Volume is v_j, in units of cluster-fraction × slots.
	Volume float64
	// Time is e_j, in slots.
	Time float64
	// Dominant is max_k d_j^k across remaining phases.
	Dominant float64
}

// Priorities runs Algorithm 1's classification (Steps 2–11) and returns
// each job's priority class p_j ≥ 1 (smaller is scheduled earlier).
// Jobs that no class packs fall into class g+1. Of several entries with
// one ID, the first decides.
func Priorities(jobs []JobInfo) map[workload.JobID]int {
	classes := prioritiesInto(jobs, &prioScratch{})
	out := make(map[workload.JobID]int, len(jobs))
	for i, j := range jobs {
		if _, dup := out[j.ID]; !dup {
			out[j.ID] = int(classes[i])
		}
	}
	return out
}

// weightKey is one entry of the knapsack greedy order.
type weightKey struct {
	volume float64
	index  int32
}

// prioScratch holds the reusable buffers of prioritiesInto, so the
// per-arrival recomputation allocates nothing once warm.
type prioScratch struct {
	// classes is the result: classes[i] is jobs[i]'s priority class.
	classes []int32
	// byWeight is the knapsack greedy order: jobs by ascending
	// (Volume, index) — shared by every class, since the unit-profit
	// oracle always selects smallest-weight-first. The key is a total
	// order, so every correct sort produces the same permutation.
	// swap is the other half of sortByWeight's double buffer, and
	// digits its per-byte histograms.
	byWeight, swap []weightKey
	digits         [8][256]int32
	// entering[l] counts the jobs whose first candidate class is l.
	entering [classCap + 2]int32
}

// firstClass returns the first class whose deadline covers a job of
// effective time t: the least l ≥ 1 with t ≤ 2^l, or classCap+1 when no
// class within the cap does (NaN included). Frexp splits t exactly into
// frac·2^exp with frac in [½, 1), so t ≤ 2^(exp−1) only at frac = ½.
func firstClass(t float64) int {
	if t <= 2 {
		return 1
	}
	if !(t <= 1<<classCap) {
		return classCap + 1
	}
	frac, exp := math.Frexp(t)
	if frac == 0.5 {
		exp--
	}
	return exp
}

// prioritiesInto classifies jobs into buf.classes, aligned with jobs,
// and returns it. The per-class knapsack (sort + item set + selection) of
// the original formulation collapses into one shared weight-sort and a
// linear greedy per class: the unit-profit oracle packs
// smallest-weight-first, and already-assigned jobs stay in the item set
// (they keep consuming budget), so selection per class is a single pass
// over the shared order, cut short once the next weight exceeds what is
// left of the budget (every later one does too) or the class has no
// unassigned candidate left. Candidates need no order of their own: the
// candidate set of class l is {Time ≤ 2^l}, a job enters it at
// firstClass(Time) and cannot be assigned before it has entered, so a
// per-class count of entries tells how many unassigned candidates a
// class holds. Classes that hold none are skipped — the knapsack could
// only re-pick assigned jobs there — which is what keeps a large g (see
// classCount's cap) cheap.
func prioritiesInto(jobs []JobInfo, buf *prioScratch) []int32 {
	n := len(jobs)
	buf.classes = slices.Grow(buf.classes[:0], n)[:n]
	if n == 0 {
		return buf.classes
	}
	classes := buf.classes
	g := classCount(jobs)

	clear(classes) // 0: unassigned
	clear(buf.entering[:])
	buf.byWeight = buf.byWeight[:0]
	for i := range jobs {
		buf.byWeight = append(buf.byWeight, weightKey{jobs[i].Volume, int32(i)})
		buf.entering[firstClass(jobs[i].Time)]++
	}
	buf.sortByWeight()

	unassigned := n
	candidates := 0 // unassigned jobs with Time ≤ the current budget
	for l := 1; l <= g && unassigned > 0; l++ {
		candidates += int(buf.entering[l])
		if candidates == 0 {
			continue // no new candidate job in B_l
		}
		budget := math.Ldexp(1, l) // 2^l, exact for l ≤ classCap
		remaining := budget
		for _, w := range buf.byWeight {
			if w.volume > remaining || candidates == 0 {
				break
			}
			if !(w.volume >= 0) || !(jobs[w.index].Time <= budget) {
				continue // not a candidate, or invalid input (negative, NaN)
			}
			remaining -= w.volume
			if classes[w.index] == 0 {
				classes[w.index] = int32(l)
				unassigned--
				candidates--
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

// radixMin is the job count from which sortByWeight runs its radix
// sort; below it slices.SortFunc's comparisons cost less than eight
// histogram passes.
const radixMin = 256

// sortByWeight orders byWeight, filled in index order, by ascending
// (volume, index). Large inputs take a stable LSD radix sort over
// volumeKey, one pass per byte in which the keys differ: stability keeps
// equal volumes in index order.
func (buf *prioScratch) sortByWeight() {
	ws := buf.byWeight
	if len(ws) < radixMin {
		slices.SortFunc(ws, func(a, b weightKey) int {
			if c := cmp.Compare(a.volume, b.volume); c != 0 {
				return c
			}
			return cmp.Compare(a.index, b.index)
		})
		return
	}
	digits := &buf.digits
	*digits = [8][256]int32{}
	for _, w := range ws {
		k := volumeKey(w.volume)
		for d := range digits {
			digits[d][byte(k>>(8*d))]++
		}
	}
	swap := slices.Grow(buf.swap[:0], len(ws))[:len(ws)]
	first := volumeKey(ws[0].volume)
	for d := range digits {
		count := &digits[d]
		shift := 8 * d
		if count[byte(first>>shift)] == int32(len(ws)) {
			continue // every key has this byte
		}
		at := int32(0)
		for b, c := range count {
			count[b], at = at, at+c
		}
		for _, w := range ws {
			b := byte(volumeKey(w.volume) >> shift)
			swap[count[b]] = w
			count[b]++
		}
		ws, swap = swap, ws
	}
	buf.byWeight, buf.swap = ws, swap
}

// volumeKey maps a volume to a key whose unsigned order is
// cmp.Compare's order on float64: every NaN first, then −Inf to +Inf,
// with −0 equal to +0.
func volumeKey(v float64) uint64 {
	if v != v {
		return 0
	}
	if v == 0 {
		v = 0 // −0 becomes +0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b // negative: a larger magnitude is smaller
	}
	return b | 1<<63
}

// classCap bounds the number of geometric classes: 2^64 slots of
// deadline budget covers any realistic effective processing time, and
// math.Ldexp(1, l) stays exact (the uncapped formula saturates
// math.Pow(2, l) to +Inf once a near-cluster-filling task clamps maxD
// to 1-1e-9 and g explodes past the float64 exponent range). Jobs whose
// e_j exceeds 2^classCap fall into class g+1 like any other
// unclassified job.
const classCap = 64

// classCount computes g = log₂(Σ v_j / (1 − max_j d_j)) per Algorithm 1
// Step 2, widened so that 2^g covers the largest e_j (otherwise online
// instances with long jobs would leave them unclassified), and capped
// at classCap.
func classCount(jobs []JobInfo) int {
	sumV := 0.0
	maxD := 0.0
	maxT := 0.0
	for _, j := range jobs {
		sumV += j.Volume
		if j.Dominant > maxD {
			maxD = j.Dominant
		}
		if j.Time > maxT {
			maxT = j.Time
		}
	}
	if maxD >= 1 {
		maxD = 1 - 1e-9 // a single task can at most fill the cluster
	}
	g := 1
	if sumV > 0 {
		g = int(math.Ceil(math.Log2(sumV / (1 - maxD))))
	}
	if maxT > 0 {
		if need := int(math.Ceil(math.Log2(maxT))); need > g {
			g = need
		}
	}
	if g < 1 {
		g = 1
	}
	if g > classCap {
		g = classCap
	}
	return g
}

// SortByPriority returns the job IDs ordered by ascending priority class,
// breaking ties by ascending volume then ID (within a class all jobs are
// equal to the oracle; volume order keeps the result deterministic and
// slightly favors small jobs, matching §4.1's guidance).
func SortByPriority(jobs []JobInfo, prio map[workload.JobID]int) []workload.JobID {
	byID := make(map[workload.JobID]JobInfo, len(jobs))
	ids := make([]workload.JobID, 0, len(jobs))
	for _, j := range jobs {
		byID[j.ID] = j
		ids = append(ids, j.ID)
	}
	sort.SliceStable(ids, func(a, b int) bool {
		pa, pb := prio[ids[a]], prio[ids[b]]
		if pa != pb {
			return pa < pb
		}
		va, vb := byID[ids[a]].Volume, byID[ids[b]].Volume
		if va != vb {
			return va < vb
		}
		return ids[a] < ids[b]
	})
	return ids
}
