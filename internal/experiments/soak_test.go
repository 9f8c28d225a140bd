package experiments

import (
	"testing"
)

// TestPaperScaleSoak runs the heaviest figure at evaluation scale — the
// 500-job PageRank heavy-load experiment across three schedulers — and
// asserts the headline shapes hold there, not just at Quick scale.
// Skipped under -short.
func TestPaperScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale soak skipped in short mode")
	}
	r, err := HeavyLoad(Paper(), "pagerank")
	if err != nil {
		t.Fatal(err)
	}
	d2 := r.TotalFlowtime["dollymp2"]
	cap := r.TotalFlowtime["capacity"]
	tet := r.TotalFlowtime["tetris"]
	t.Logf("paper scale: dollymp2=%.0f capacity=%.0f (−%.0f%%) tetris=%.0f (−%.0f%%)",
		d2, cap, 100*(1-d2/cap), tet, 100*(1-d2/tet))
	// The paper's headline: DollyMP² cuts total flowtime by tens of
	// percent against both baselines under heavy load.
	if d2 >= 0.85*cap {
		t.Errorf("expected ≥15%% gain vs Capacity at paper scale: %v vs %v", d2, cap)
	}
	if d2 >= 0.85*tet {
		t.Errorf("expected ≥15%% gain vs Tetris at paper scale: %v vs %v", d2, tet)
	}
}
