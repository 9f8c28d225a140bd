package experiments

import "testing"

func TestStragglerAvoidanceHelps(t *testing.T) {
	r, err := StragglerAvoidance(Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline=%d learned=%d reduction=%.1f%%", r.BaselineFlowtime, r.LearnedFlowtime, 100*r.Reduction)
	if r.Reduction <= 0 {
		t.Fatalf("learned ordering should help on a fleet with slow servers: %+v", r)
	}
}
