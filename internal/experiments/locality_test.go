package experiments

import (
	"bytes"
	"testing"
)

func TestLocalitySweep(t *testing.T) {
	r, err := Locality(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Penalties) != 4 {
		t.Fatalf("points: %+v", r)
	}
	// At the largest penalty, locality binding must win.
	last := len(r.Penalties) - 1
	if r.YARNFlowtime[last] >= r.FlatFlowtime[last] {
		t.Fatalf("two-level should win at penalty %d: %d vs %d",
			r.Penalties[last], r.YARNFlowtime[last], r.FlatFlowtime[last])
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("write: %v", err)
	}
}
