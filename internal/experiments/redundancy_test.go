package experiments

import (
	"bytes"
	"testing"
)

func TestRedundancyCloningBeatsSpeculation(t *testing.T) {
	r, err := Redundancy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Order) != 3 {
		t.Fatalf("variants: %v", r.Order)
	}
	t.Logf("flowtime: %v", r.TotalFlowtime)
	t.Logf("small-job p95: %v", r.SmallJobP95)
	t.Logf("extra copies: %v", r.ExtraCopies)

	none := r.TotalFlowtime["dollymp0"]
	spec := r.TotalFlowtime["dollymp-spec"]
	clone := r.TotalFlowtime["dollymp2"]
	// §1's claims: any redundancy beats none here (heavy tails, spare
	// capacity), and proactive cloning beats reactive speculation.
	if clone >= none {
		t.Errorf("cloning should beat no redundancy: %v vs %v", clone, none)
	}
	if clone >= spec {
		t.Errorf("cloning should beat speculation: %v vs %v", clone, spec)
	}
	// Speculation launches far fewer copies than cloning (reactive).
	if r.ExtraCopies["dollymp-spec"] >= r.ExtraCopies["dollymp2"] {
		t.Errorf("speculation should be cheaper in copies: %v", r.ExtraCopies)
	}
	// Small jobs: cloning's tail must not be worse than speculation's.
	if r.SmallJobP95["dollymp2"] > r.SmallJobP95["dollymp-spec"] {
		t.Errorf("small-job tail: cloning %v should beat speculation %v",
			r.SmallJobP95["dollymp2"], r.SmallJobP95["dollymp-spec"])
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}
