package sim

// The arrival queue: an indexed min-heap of pending job arrivals keyed
// (arrival, jobID), shared by the batch and online paths. The batch path
// heapifies the full workload once at New; the online path pushes each
// InjectJob in O(log n). Popping an arrival nils its vacated slot and
// shrinks the backing array when occupancy drops, so the queue's memory
// is proportional to jobs *pending*, never to jobs ever injected — the
// property the 100k-inject regression test pins (the previous sorted
// slice kept its consumed prefix alive for the engine's lifetime). It
// holds each job's spec and nothing else: the engine makes a job's
// state when the job pops (processArrivals), not while it waits.
//
// The key is a total order (IDs are unique), so pop order is exactly the
// (arrival, ID) order the old sorted slice produced: the heap is
// bit-for-bit equivalent to it for every schedule the engine can see.

import "dollymp/internal/workload"

// arrivalLess orders two pending jobs by (arrival, ID).
func arrivalLess(a, b *workload.Job) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// arrivalQueue is the indexed min-heap. The zero value is ready to use.
type arrivalQueue struct {
	h []*workload.Job
}

// Len returns the number of pending arrivals.
func (q *arrivalQueue) Len() int { return len(q.h) }

// Peek returns the earliest pending arrival without removing it, or nil
// when the queue is empty.
func (q *arrivalQueue) Peek() *workload.Job {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// Push inserts one pending arrival.
func (q *arrivalQueue) Push(j *workload.Job) {
	q.h = append(q.h, j)
	q.up(len(q.h) - 1)
}

// Pop removes and returns the earliest pending arrival. The vacated
// slot is nilled so the job is released to the collector, and the
// backing array shrinks once occupancy falls below a quarter of its
// capacity — consumed arrivals never pin memory.
func (q *arrivalQueue) Pop() *workload.Job {
	n := len(q.h)
	if n == 0 {
		return nil
	}
	top := q.h[0]
	q.h[0] = q.h[n-1]
	q.h[n-1] = nil // release the consumed entry
	q.h = q.h[:n-1]
	q.down(0)
	if c := cap(q.h); c > 64 && len(q.h) < c/4 {
		shrunk := make([]*workload.Job, len(q.h), c/2)
		copy(shrunk, q.h)
		q.h = shrunk
	}
	return top
}

// Init heapifies n pre-loaded entries in O(n) (the batch path).
func (q *arrivalQueue) Init(jobs []*workload.Job) {
	q.h = jobs
	for i := len(q.h)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// Cap exposes the backing array's capacity for the memory-retention
// regression test.
func (q *arrivalQueue) Cap() int { return cap(q.h) }

func (q *arrivalQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !arrivalLess(q.h[i], q.h[parent]) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *arrivalQueue) down(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && arrivalLess(q.h[l], q.h[least]) {
			least = l
		}
		if r < n && arrivalLess(q.h[r], q.h[least]) {
			least = r
		}
		if least == i {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}
