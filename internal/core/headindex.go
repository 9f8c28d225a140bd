package core

import (
	"cmp"
	"math/bits"
	"slices"

	"dollymp/internal/resources"
)

// leafSize is the largest run of entries a search scans linearly, and
// overflowSlack is how far the overflow list may outgrow a fraction of
// the index before it is folded back into the tree (see insert). Both
// are fixed by measurement: docs/ARCHITECTURE.md, "The head index".
const (
	leafSize      = 32
	overflowSlack = 8
)

// headIndex answers the new-task pass's one question for a priority
// class: of the members whose next schedulable task (their head) fits a
// server's free vector, which scores the highest inner product with
// it — the earliest member in ctx.Jobs() order on a tie.
//
// It is a k-d tree over the head demands, stored implicitly: ents holds
// the entries in k-d order, node n covers a range of it found by halving
// from the root (children 2n+1 and 2n+2, alternating the split axis),
// and a range of at most leafSize entries is a leaf. A class no bigger
// than one leaf is a root that is a leaf: its query is a linear scan.
//
// The tree is built in one go and never restructured. A head that goes
// away is deleted in its leaf: the leaf's last live entry moves into its
// slot, so a leaf's live entries always lead its range and a search
// scans only those. The live counts on its root path drop, while the
// boxes keep their build-time extent. A head that appears, or comes back
// with a different demand, goes to the overflow list, which every query
// scans beside the tree. Both only ever leave a node's box too wide and
// its lowest sequence too low, which costs pruning, never the answer.
type headIndex struct {
	ents  []headEnt
	nodes []headNode
	over  []headEnt
	// overMin is a component-wise lower bound on the overflow demands
	// (it only moves down while the list lives), so a server too full
	// for it skips the list.
	overMin resources.Vector
	// live counts the heads in the index, tree and overflow together.
	live int
	// stats counts the index's work for StatsOf; reset keeps it.
	stats headStats
}

// headEnt is one member's head: the demand it is indexed under and the
// member's position in ctx.Jobs() order. A leaf's slots past its live
// entries are zero.
type headEnt struct {
	demand resources.Vector
	seq    uint32
	rec    *jobRec
}

// headNode bounds a subtree: every live entry's demand lies within
// [min, max] component-wise and no entry's sequence is below minSeq.
type headNode struct {
	min, max resources.Vector
	live     int32
	minSeq   uint32
}

// reset empties the index, keeping its storage.
func (x *headIndex) reset() {
	clear(x.ents)
	clear(x.over)
	x.ents, x.over, x.live = x.ents[:0], x.over[:0], 0
}

// stage queues a head for the next build.
func (x *headIndex) stage(r *jobRec, demand resources.Vector) {
	x.ents = append(x.ents, headEnt{demand: demand, seq: r.seq, rec: r})
}

// build arranges the staged entries (all live, none in overflow) into
// the tree.
func (x *headIndex) build() {
	n := len(x.ents)
	size := 1
	for s := n; s > leafSize; s = (s + 1) / 2 {
		size = 2*size + 1
	}
	if cap(x.nodes) < size {
		x.nodes = make([]headNode, size)
	}
	x.nodes = x.nodes[:size]
	x.live = n
	x.stats.builds++
	x.stats.built += uint64(n)
	x.split(0, 0, n, 0)
}

func byCPU(a, b headEnt) int { return cmp.Compare(a.demand.CPUMilli, b.demand.CPUMilli) }
func byMem(a, b headEnt) int { return cmp.Compare(a.demand.MemMiB, b.demand.MemMiB) }

// split builds node n over ents[lo:hi], cutting at the median along
// axis (0 CPU, 1 memory) while the range is longer than a leaf: no
// entry left of the cut is greater on the axis than one right of it.
func (x *headIndex) split(n, lo, hi, axis int) {
	if hi-lo > leafSize {
		mid := lo + (hi-lo)/2
		by := byCPU
		if axis == 1 {
			by = byMem
		}
		if selectNth(x.ents[lo:hi], mid-lo, by) {
			x.stats.sorted++
		}
		x.split(2*n+1, lo, mid, 1-axis)
		x.split(2*n+2, mid, hi, 1-axis)
		l, r := &x.nodes[2*n+1], &x.nodes[2*n+2]
		x.nodes[n] = headNode{
			min: l.min.Min(r.min), max: l.max.Max(r.max),
			live: l.live + r.live, minSeq: min(l.minSeq, r.minSeq),
		}
		return
	}
	nd := headNode{live: int32(hi - lo)}
	for i := lo; i < hi; i++ {
		e := &x.ents[i]
		e.rec.where = int32(i + 1)
		if i == lo {
			nd.min, nd.max, nd.minSeq = e.demand, e.demand, e.seq
			continue
		}
		nd.min, nd.max, nd.minSeq = nd.min.Min(e.demand), nd.max.Max(e.demand), min(nd.minSeq, e.seq)
	}
	x.nodes[n] = nd
}

// selectNth reorders s so that s[k] is what sorting s by cmp would put
// there, with nothing before it greater and nothing after it smaller:
// Hoare's FIND, partitioning around the median of the entries a quarter,
// half and three quarters into the open range, so sorted, reversed,
// rotated and organ-pipe orders and runs of equal keys take one round or
// a few. An order built against that pivot rule would make it
// quadratic, so after 2·log₂(len(s)) rounds it sorts the range still
// open and reports that it did.
func selectNth(s []headEnt, k int, cmp func(a, b headEnt) int) (sorted bool) {
	lo, hi := 0, len(s)
	for rounds := 2 * bits.Len(uint(len(s))); hi-lo > 1; rounds-- {
		if rounds == 0 {
			slices.SortFunc(s[lo:hi], cmp)
			return true
		}
		q := (hi - lo) / 4
		p := median3(s[lo+q], s[lo+(hi-lo)/2], s[hi-1-q], cmp)
		// p is in s[lo:hi], so both scans stop inside it. Afterwards
		// s[lo:j+1] ≤ p ≤ s[i:hi] and everything between equals p.
		i, j := lo, hi-1
		for i <= j {
			for cmp(s[i], p) < 0 {
				i++
			}
			for cmp(s[j], p) > 0 {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return false
		}
	}
	return false
}

// median3 returns the median of a, b and c under cmp.
func median3(a, b, c headEnt, cmp func(a, b headEnt) int) headEnt {
	if cmp(a, b) > 0 {
		a, b = b, a
	}
	if cmp(b, c) <= 0 {
		return b
	}
	if cmp(a, c) > 0 {
		return a
	}
	return c
}

// insert adds r's head to the overflow list. The list is scanned in
// full by every query, so once it outgrows 1/overflowSlack of the index
// (and a leaf), tree and list are rebuilt into one tree — which also
// sheds the deleted entries and tightens every box.
func (x *headIndex) insert(r *jobRec, demand resources.Vector) {
	if len(x.over) == 0 {
		x.overMin = demand
	} else {
		x.overMin = x.overMin.Min(demand)
	}
	x.over = append(x.over, headEnt{demand: demand, seq: r.seq, rec: r})
	r.where = int32(-len(x.over))
	x.live++
	if len(x.over) <= leafSize+x.live/overflowSlack {
		return
	}
	w := 0
	for _, e := range x.ents {
		if e.rec != nil {
			x.ents[w] = e
			w++
		}
	}
	clear(x.ents[w:])
	x.ents = append(x.ents[:w], x.over...)
	clear(x.over)
	x.over = x.over[:0]
	x.build()
}

// remove deletes r's head, if it has one in the index.
func (x *headIndex) remove(r *jobRec) {
	switch w := int(r.where); {
	case w == 0:
		return
	case w > 0:
		i := w - 1
		n, lo, hi := 0, 0, len(x.ents)
		for {
			x.nodes[n].live--
			if hi-lo <= leafSize {
				break
			}
			if mid := lo + (hi-lo)/2; i < mid {
				n, hi = 2*n+1, mid
			} else {
				n, lo = 2*n+2, mid
			}
		}
		// The leaf's last live entry fills the hole.
		last := lo + int(x.nodes[n].live)
		if last != i {
			x.ents[i] = x.ents[last]
			x.ents[i].rec.where = int32(i + 1)
		}
		x.ents[last] = headEnt{}
	default:
		i, last := -w-1, len(x.over)-1
		x.over[i] = x.over[last]
		x.over[i].rec.where = int32(-(i + 1))
		x.over[last] = headEnt{}
		x.over = x.over[:last]
	}
	r.where = 0
	x.live--
}

// set makes the index hold r's head under demand (ok) or not at all
// (!ok). An entry already there under the same demand stays put: a
// head advancing within one phase does not touch the index.
func (x *headIndex) set(r *jobRec, demand resources.Vector, ok bool) {
	switch w := int(r.where); {
	case w == 0 && !ok:
		return
	case w > 0 && ok && x.ents[w-1].demand == demand:
		return
	case w < 0 && ok && x.over[-w-1].demand == demand:
		return
	}
	x.remove(r)
	if ok {
		x.insert(r, demand)
	}
}

// headQuery is the state of one best search: the best fitting head so
// far, its score (-1 while none: a real score is never negative) and
// its sequence.
type headQuery struct {
	free  resources.Vector
	norm  resources.Norm
	score float64
	seq   uint32
	rec   *jobRec
}

// best returns the member whose head fits free with the highest
// demand·free, the lowest sequence among equals, or nil.
//
// The answer is exact — the one a scan of the members in ctx.Jobs()
// order keeping the first maximum would give. Norm.Dot is monotone in
// the demand for a non-negative free (IEEE multiplication, division by
// a positive constant and addition all preserve ≤), a head that fits
// has demand ≤ free, and every live demand under node n is within its
// box; so min(box max, free)·free bounds the score of every fitting
// head under n from above, and a box minimum that does not fit rules
// the subtree out. A subtree is dropped only when it can hold no
// (score, sequence) pair better than the one in hand.
func (x *headIndex) best(free resources.Vector, norm resources.Norm) *jobRec {
	x.stats.queries++
	if x.live == 0 {
		return nil
	}
	q := headQuery{free: free, norm: norm, score: -1}
	if len(x.over) > 0 && x.overMin.Fits(free) {
		x.stats.over += uint64(len(x.over))
		q.scan(x.over)
	}
	if ub := x.bound(&q, 0); q.admits(ub, x.nodes[0].minSeq) {
		x.search(&q, 0, 0, len(x.ents))
	}
	return q.rec
}

// scan is the search's leaf step, and the whole of it for the overflow
// list: the linear argmax over a run of live entries.
func (q *headQuery) scan(ents []headEnt) {
	for i := range ents {
		e := &ents[i]
		if !e.demand.Fits(q.free) {
			continue
		}
		if s := q.norm.Dot(e.demand, q.free); s > q.score || (s == q.score && e.seq < q.seq) {
			q.score, q.seq, q.rec = s, e.seq, e.rec
		}
	}
}

// search explores node n over ents[lo:hi], whose bound the caller found
// admissible: the child with the higher bound first, the other one
// re-tested against whatever that dive found.
func (x *headIndex) search(q *headQuery, n, lo, hi int) {
	x.stats.nodes++
	if hi-lo <= leafSize {
		live := int(x.nodes[n].live)
		x.stats.leaf += uint64(live)
		q.scan(x.ents[lo : lo+live])
		return
	}
	mid := lo + (hi-lo)/2
	l, r := 2*n+1, 2*n+2
	lub, rub := x.bound(q, l), x.bound(q, r)
	if rub > lub {
		if q.admits(rub, x.nodes[r].minSeq) {
			x.search(q, r, mid, hi)
		}
		if q.admits(lub, x.nodes[l].minSeq) {
			x.search(q, l, lo, mid)
		}
		return
	}
	if q.admits(lub, x.nodes[l].minSeq) {
		x.search(q, l, lo, mid)
	}
	if q.admits(rub, x.nodes[r].minSeq) {
		x.search(q, r, mid, hi)
	}
}

// bound returns an upper bound on the score of every fitting head under
// node n, or -1 when nothing there is live or can fit.
func (x *headIndex) bound(q *headQuery, n int) float64 {
	nd := &x.nodes[n]
	if nd.live == 0 || !nd.min.Fits(q.free) {
		return -1
	}
	return q.norm.Dot(nd.max.Min(q.free), q.free)
}

// admits reports whether a subtree with score bound ub and lowest
// sequence minSeq could still beat the best in hand. With nothing in
// hand (score -1, seq 0) it admits every real bound and never the -1 of
// an empty or unfitting subtree.
func (q *headQuery) admits(ub float64, minSeq uint32) bool {
	return ub > q.score || (ub == q.score && minSeq < q.seq)
}
