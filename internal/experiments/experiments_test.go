package experiments

import (
	"bytes"
	"math"
	"testing"
)

// The experiment tests run at Quick scale and assert the paper's SHAPES:
// who wins, roughly by how much, and in which direction parameters move
// the result. Absolute slot counts are simulator artifacts.

func TestFigure2ExactNumbers(t *testing.T) {
	r := Figure2()
	if r.Tetris != 46 {
		t.Errorf("Tetris: %v, want 46", r.Tetris)
	}
	if r.TetrisWithClones != 42 {
		t.Errorf("Tetris+clones: %v, want 42", r.TetrisWithClones)
	}
	if r.OrderOnly != 34 {
		t.Errorf("order only: %v, want 34", r.OrderOnly)
	}
	if r.DollyMP != 28 {
		t.Errorf("DollyMP: %v, want 28", r.DollyMP)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}

func TestCloningAnalysisOrdering(t *testing.T) {
	// §4.1's conditions: h_j(2^j) < j for j ≥ α/(α−1) and
	// h(2) > N/(N−1) for N > 2α−1. With α = 2, N = 10 both hold.
	r := CloningAnalysis()
	if r.N != 10 || r.Alpha != 2 {
		t.Fatalf("N=%d α=%v, want 10 and 2", r.N, r.Alpha)
	}
	if !r.Ordered() {
		t.Fatalf("flow3 < flow1 < flow2 must hold: %+v", r)
	}
	// flow1 = N − 1 + 1/h(2) = 9 + 2/3.
	if math.Abs(r.Flow1-(9+2.0/3)) > 1e-9 {
		t.Errorf("flow1: %v", r.Flow1)
	}
	// flow3 = (N+1)/h(2) = 11/1.5.
	if math.Abs(r.Flow3-11/1.5) > 1e-9 {
		t.Errorf("flow3: %v", r.Flow3)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Error(err)
	}
}

func TestCompetitiveRatioWithinBound(t *testing.T) {
	r, err := CompetitiveRatio(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 1: 6R with R = 1 (no cloning, deterministic durations).
	if r.WorstRatio > 6 {
		t.Fatalf("worst ratio %v exceeds the Theorem-1 bound 6", r.WorstRatio)
	}
	if r.WorstRatio < 1-1e-9 {
		t.Fatalf("ratio below 1 means the lower bound is wrong: %v", r.WorstRatio)
	}
	if r.MeanRatio < 1 || r.MeanRatio > r.WorstRatio+1e-9 {
		t.Fatalf("mean ratio inconsistent: %+v", r)
	}
}

func TestFigure1Shape(t *testing.T) {
	r, err := Figure1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Schedulers) != 4 || len(r.Runs) != 4 {
		t.Fatalf("schedulers: %v", r.Schedulers)
	}
	if len(r.Runs[0]) != 8 {
		t.Fatalf("runs: %d, want §2's 8", len(r.Runs[0]))
	}
	idx := map[string]int{}
	for i, s := range r.Schedulers {
		idx[s] = i
	}
	// Paper shape: DollyMP² mean below Capacity's, and less variable.
	if r.Mean[idx["dollymp2"]] >= r.Mean[idx["capacity"]] {
		t.Errorf("DollyMP2 mean %v should be below Capacity %v",
			r.Mean[idx["dollymp2"]], r.Mean[idx["capacity"]])
	}
	if r.SD[idx["dollymp2"]] > r.SD[idx["dollymp0"]] {
		t.Errorf("DollyMP2 sd %v should not exceed DollyMP0 sd %v",
			r.SD[idx["dollymp2"]], r.SD[idx["dollymp0"]])
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Order) != 6 {
		t.Fatalf("schedulers: %v", r.Order)
	}
	// Paper shape: DollyMP² total flowtime below Capacity's.
	if r.TotalFlowtime["dollymp2"] >= r.TotalFlowtime["capacity"] {
		t.Errorf("DollyMP2 %v should be below Capacity %v",
			r.TotalFlowtime["dollymp2"], r.TotalFlowtime["capacity"])
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}

func TestHeavyLoadShape(t *testing.T) {
	sc := Quick()
	for _, app := range []string{"pagerank", "wordcount"} {
		r, err := HeavyLoad(sc, app)
		if err != nil {
			t.Fatal(err)
		}
		// Paper shape: DollyMP² beats both baselines on total flowtime.
		if r.TotalFlowtime["dollymp2"] >= r.TotalFlowtime["capacity"] {
			t.Errorf("%s: DollyMP2 %v should beat Capacity %v", app,
				r.TotalFlowtime["dollymp2"], r.TotalFlowtime["capacity"])
		}
		if r.TotalFlowtime["dollymp2"] >= r.TotalFlowtime["tetris"] {
			t.Errorf("%s: DollyMP2 %v should beat Tetris %v", app,
				r.TotalFlowtime["dollymp2"], r.TotalFlowtime["tetris"])
		}
		if len(r.FlowtimeCDF) == 0 || len(r.Cumulative) == 0 {
			t.Errorf("%s: missing the Fig. 6/7 series", app)
		}
		var buf bytes.Buffer
		if err := r.Write(&buf); err != nil || buf.Len() == 0 {
			t.Errorf("write: %v", err)
		}
	}
	if _, err := HeavyLoad(sc, "sort"); err == nil {
		t.Error("unknown app should error")
	}
}

func TestFigure8Shape(t *testing.T) {
	r, err := Figure8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: DollyMP² is faster than Tetris on average and uses
	// more resources than DRF (cloning costs something).
	if r.AvgSpeedup <= 0 {
		t.Errorf("avg speedup should be positive: %v", r.AvgSpeedup)
	}
	if r.ResourceOverhead <= 0 {
		t.Errorf("resource overhead vs DRF should be positive: %v", r.ResourceOverhead)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}

func TestFigure9Shape(t *testing.T) {
	r, err := Figure9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.TotalUsage) != 4 || len(r.FracImproved20) != 3 {
		t.Fatalf("sizes: %+v", r)
	}
	// Paper shape: resource usage grows with the clone cap.
	for k := 1; k <= 3; k++ {
		if r.TotalUsage[k] < r.TotalUsage[k-1] {
			t.Errorf("usage must grow with clones: %v", r.TotalUsage)
		}
	}
	// Diminishing returns: the third clone helps fewer jobs than the
	// second (allowing slack for small-sample noise).
	if r.FracImproved20[2] > r.FracImproved20[1]+0.15 {
		t.Errorf("third clone should not help much more than the second: %v", r.FracImproved20)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}

func TestFigure10Shape(t *testing.T) {
	r, err := Figure10(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LoadFactor) != 4 {
		t.Fatalf("points: %+v", r)
	}
	// Paper shape: cloning reduces flowtime at every load, and tasks
	// still get cloned at high load.
	for i := range r.LoadFactor {
		if r.FlowReduction[i] <= -0.05 {
			t.Errorf("cloning should not hurt at load %v: %v", r.LoadFactor[i], r.FlowReduction[i])
		}
	}
	if r.ClonedTaskFrac[0] <= 0 {
		t.Errorf("no tasks cloned at low load: %+v", r)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}

func TestFigure11Shape(t *testing.T) {
	r, err := Figure11(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: DollyMP² reduces mean JCT vs Carbyne.
	if r.MeanReduction <= 0 {
		t.Errorf("mean reduction vs Carbyne should be positive: %v", r.MeanReduction)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}

func TestOverheadSmall(t *testing.T) {
	r, err := Overhead(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 200 || r.Servers != 3000 {
		t.Fatalf("below paper scale: %d jobs on %d servers, want 200 on 3000", r.Jobs, r.Servers)
	}
	if r.PriorityTime <= 0 || r.DecisionTime <= 0 {
		t.Fatalf("timings: %+v", r)
	}
	if r.Placements == 0 {
		t.Fatal("no placements granted")
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}
