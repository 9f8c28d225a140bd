package experiments

import (
	"bytes"
	"testing"
)

func TestAblationCloneBudget(t *testing.T) {
	r, err := AblationCloneBudget(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("points: %+v", r)
	}
	// δ = 0 must clone nothing and set the usage baseline.
	if r.Points[0].Delta != 0 || r.Points[0].ClonedTaskFrac != 0 || r.Points[0].ExtraResources != 0 {
		t.Fatalf("δ=0 point: %+v", r.Points[0])
	}
	for i := 1; i < len(r.Points); i++ {
		p := r.Points[i]
		// Any positive budget must beat no budget on flowtime here
		// (heavy tails, spare capacity).
		if p.TotalFlowtime >= r.Points[0].TotalFlowtime {
			t.Errorf("δ=%v should beat δ=0: %+v", p.Delta, r.Points)
		}
		// Resource overhead is monotone in δ.
		if p.ExtraResources < r.Points[i-1].ExtraResources {
			t.Errorf("overhead should grow with δ: %+v", r.Points)
		}
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}

func TestAblationVarianceFactor(t *testing.T) {
	r, err := AblationVarianceFactor(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Flowtimes) != 4 {
		t.Fatalf("flowtimes: %+v", r)
	}
	for _, f := range r.Flowtimes {
		if f <= 0 {
			t.Fatalf("bad flowtime: %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}

func TestAblationTetrisEpsilon(t *testing.T) {
	r, err := AblationTetrisEpsilon(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Flowtimes) != 3 {
		t.Fatalf("flowtimes: %+v", r)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}
