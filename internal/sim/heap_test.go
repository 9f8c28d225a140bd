package sim

import (
	"container/heap"
	"testing"

	"dollymp/internal/stats"
)

// refHeap is the container/heap adapter copyHeap replaced, kept as the
// reference for its pop order.
type refHeap []*taskCopy

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].finish < h[j].finish }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*taskCopy)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestCopyHeapMatchesContainerHeap drives copyHeap and container/heap
// with the same random pushes and pops over few distinct finish slots.
// Which of several equal-finish copies pops first is decided by the
// sift sequence alone, and every schedule depends on it, so the two
// must pop the same copies, pointer for pointer.
func TestCopyHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		spread := 1 + rng.Intn(12) // distinct finish values: 1 is all ties
		var got copyHeap
		var want refHeap
		pops := 0
		pop := func(step int) {
			w := heap.Pop(&want).(*taskCopy)
			if g := got.pop(); g != w {
				t.Fatalf("seed %d step %d: popped the copy of task %d (finish %d), container/heap pops task %d (finish %d)",
					seed, step, g.ref.Index, g.finish, w.ref.Index, w.finish)
			}
			pops++
		}
		for step := 0; step < 4000; step++ {
			if len(want) > 0 && rng.Intn(100) < 45 {
				pop(step)
				continue
			}
			c := &taskCopy{finish: int64(rng.Intn(spread))}
			c.ref.Index = step
			heap.Push(&want, c)
			got.push(c)
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: %d entries, want %d", seed, step, len(got), len(want))
			}
		}
		for len(want) > 0 {
			pop(-1)
		}
		if len(got) != 0 || pops < 2000 {
			t.Fatalf("seed %d: %d entries left after %d pops", seed, len(got), pops)
		}
	}
}
