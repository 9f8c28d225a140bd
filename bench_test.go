package dollymp

// BenchmarkFigures regenerates every experiment of the paper's
// evaluation, one sub-benchmark per id of experiments.All
// (BenchmarkFigures/<id>), at Quick scale; dollymp-bench -scale paper
// runs the same list at the evaluation's job counts. The §6.3.3
// overhead bench measures the scheduling decision itself, the paper's
// reported quantity. Run with:
//
//	go test -bench=. -benchmem
import (
	"testing"
	"time"

	"dollymp/internal/experiments"
)

func BenchmarkFigures(b *testing.B) {
	for _, e := range experiments.All {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiments.Quick()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulingOverhead measures the §6.3.3 quantity: one DollyMP
// decision (priority recomputation plus a placement round) for 1K jobs
// on a 30K-machine fleet. The paper reports <50 ms for the decision.
func BenchmarkSchedulingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Overhead(experiments.Paper())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.PriorityTime)/float64(time.Microsecond), "priority-µs")
		b.ReportMetric(float64(r.DecisionTime)/float64(time.Millisecond), "placement-ms")
	}
}
