package dollymp

// One benchmark per paper table/figure. Each bench regenerates the
// figure's rows/series at Quick scale per iteration (Paper scale is
// exercised by cmd/dollymp-bench -scale paper); the §6.3.3 overhead
// bench measures the scheduling decision itself, the paper's reported
// quantity. Run with:
//
//	go test -bench=. -benchmem
import (
	"testing"

	"dollymp/internal/experiments"
)

func benchScale() experiments.Scale { return experiments.Quick() }

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2()
		if r.DollyMP != 28 {
			b.Fatal("figure 2 regression")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5PageRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HeavyLoad(benchScale(), "pagerank"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5WordCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HeavyLoad(benchScale(), "wordcount"); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 6 and 7 derive from the same heavy-load runs as Figure 5; the
// dedicated benches below exercise their series extraction end-to-end.
func BenchmarkFigure6And7Series(b *testing.B) {
	r, err := experiments.HeavyLoad(benchScale(), "pagerank")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.FlowtimeCDF) == 0 || len(r.Cumulative) == 0 {
			b.Fatal("missing series")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(benchScale()); err != nil {
			b.Fatal(err)
		}
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
		b.ReportMetric(float64(r.PriorityTime.Microseconds()), "priority-µs")
		b.ReportMetric(float64(r.DecisionTime.Milliseconds()), "placement-ms")
	}
}

// Ablation benches isolate DollyMP's design choices (DESIGN.md):
// the δ cloning budget, the variance factor r, Tetris's ε, and the
// learned straggler-avoidance extension.

func BenchmarkAblationCloneBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationCloneBudget(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if r.Points[0].ClonedTaskFrac != 0 {
			b.Fatal("δ=0 cloned")
		}
	}
}

func BenchmarkAblationVarianceFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationVarianceFactor(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTetrisEpsilon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTetrisEpsilon(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStragglerAvoidance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StragglerAvoidance(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRedundancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Redundancy(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Estimation(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Locality(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCloningAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.CloningAnalysis()
		if !r.Ordered() {
			b.Fatal("§4.1 ordering regression")
		}
	}
}

func BenchmarkCompetitiveRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.CompetitiveRatio(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if r.WorstRatio > 6 {
			b.Fatalf("Theorem 1 bound violated: %v", r.WorstRatio)
		}
	}
}
