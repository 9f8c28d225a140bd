package experiments

import (
	"bytes"
	"testing"
)

func TestEstimationPenaltySmall(t *testing.T) {
	r, err := Estimation(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle=%d estimated=%d penalty=%+.1f%%",
		r.OracleFlowtime, r.EstimatedFlowtime, 100*r.Penalty)
	// The recurring workload should keep estimation within 30% of the
	// oracle (the paper's AM relies on exactly this property).
	if r.Penalty > 0.30 {
		t.Fatalf("estimation penalty too large: %+v", r)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}
