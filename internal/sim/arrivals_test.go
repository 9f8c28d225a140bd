package sim

import (
	"math/rand"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// TestArrivalQueueOrder exercises the heap directly: random pushes must
// pop in exact (arrival, ID) order, matching the sorted slice the heap
// replaced.
func TestArrivalQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q arrivalQueue
	const n = 2000
	for i := 0; i < n; i++ {
		j := &workload.Job{ID: workload.JobID(i + 1), Arrival: int64(rng.Intn(200))}
		q.Push(j)
	}
	if q.Len() != n {
		t.Fatalf("len %d, want %d", q.Len(), n)
	}
	var prev *workload.Job
	for q.Len() > 0 {
		if p := q.Peek(); p != q.h[0] {
			t.Fatal("peek disagrees with heap root")
		}
		j := q.Pop()
		if prev != nil && !arrivalLess(prev, j) {
			t.Fatalf("pop order violated: (%d,%d) before (%d,%d)",
				prev.Arrival, prev.ID, j.Arrival, j.ID)
		}
		prev = j
	}
	if q.Pop() != nil || q.Peek() != nil {
		t.Fatal("empty queue must pop/peek nil")
	}
}

// TestArrivalQueueInitMatchesPush certifies the batch path (Init
// heapify) pops the same sequence as incremental pushes.
func TestArrivalQueueInitMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func() []*workload.Job {
		out := make([]*workload.Job, 500)
		for i := range out {
			out[i] = &workload.Job{
				ID: workload.JobID(i + 1), Arrival: int64(rng.Intn(50)),
			}
		}
		return out
	}
	jobs := mk()
	var a, b arrivalQueue
	a.Init(append([]*workload.Job(nil), jobs...))
	for _, j := range jobs {
		b.Push(j)
	}
	for a.Len() > 0 {
		x, y := a.Pop(), b.Pop()
		if x != y {
			t.Fatalf("Init and Push pop different entries: job %d vs %d", x.ID, y.ID)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("push-built queue has %d leftovers", b.Len())
	}
}

// TestOnlineArrivalQueueMemoryBounded is the regression test for the
// online-engine retention bug: before the indexed heap, InjectJob kept
// every consumed arrival alive in the sorted slice's prefix, so the
// backing array grew monotonically with jobs ever injected (100k jobs →
// 100k live slots). With arrival-release semantics the queue's backing
// storage must track the pending backlog, not lifetime intake.
func TestOnlineArrivalQueueMemoryBounded(t *testing.T) {
	e, err := New(Config{
		Cluster: cluster.Uniform(8, resources.Cores(16, 32)), Scheduler: Greedy{},
		Seed: 1, Deterministic: true, Online: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		waves    = 100
		waveSize = 1000 // 100k jobs total
	)
	drain := func() {
		for {
			idle, err := e.Step()
			if err != nil {
				t.Fatal(err)
			}
			if idle {
				return
			}
		}
	}
	id := workload.JobID(1)
	capHighWater := 0
	for w := 0; w < waves; w++ {
		for i := 0; i < waveSize; i++ {
			j := SingleTaskJob(id, e.Clock(), 2)
			id++
			if _, err := e.InjectJob(j); err != nil {
				t.Fatal(err)
			}
		}
		drain()
		if c := e.arrivals.Cap(); c > capHighWater {
			capHighWater = c
		}
	}
	if got := e.CompletedJobs(); got != waves*waveSize {
		t.Fatalf("completed %d, want %d", got, waves*waveSize)
	}
	// The backlog never exceeds one wave, so the backing array must stay
	// within a small constant factor of waveSize — and nowhere near the
	// 100k entries the retention bug would pin.
	if capHighWater > 4*waveSize {
		t.Fatalf("arrival queue backing storage grew to %d slots for a backlog of %d: consumed arrivals are being retained",
			capHighWater, waveSize)
	}
	// After the final drain the queue is empty and must have shrunk.
	if c := e.arrivals.Cap(); c > waveSize {
		t.Fatalf("drained arrival queue still holds %d slots", c)
	}
}
