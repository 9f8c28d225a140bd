package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParetoMoments(t *testing.T) {
	p := Pareto{Alpha: 3, Xm: 2}
	if got, want := p.Mean(), 3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean: got %v, want %v", got, want)
	}
	// Var = xm²·α/((α−1)²(α−2)) = 4·3/(4·1) = 3.
	if got, want := p.Var(), 3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("var: got %v, want %v", got, want)
	}
	if !math.IsInf(Pareto{Alpha: 1, Xm: 1}.Mean(), 1) {
		t.Error("alpha<=1 should have infinite mean")
	}
	if !math.IsInf(Pareto{Alpha: 2, Xm: 1}.Var(), 1) {
		t.Error("alpha<=2 should have infinite variance")
	}
}

func TestFitParetoRoundTrip(t *testing.T) {
	cases := []struct{ mean, sd float64 }{
		{10, 5}, {100, 80}, {1, 0.1}, {50, 49},
	}
	for _, c := range cases {
		p, err := FitPareto(c.mean, c.sd)
		if err != nil {
			t.Fatalf("fit(%v, %v): %v", c.mean, c.sd, err)
		}
		if math.Abs(p.Mean()-c.mean) > 1e-9*c.mean {
			t.Errorf("fit(%v,%v): mean %v", c.mean, c.sd, p.Mean())
		}
		if math.Abs(p.SD()-c.sd) > 1e-6*c.sd {
			t.Errorf("fit(%v,%v): sd %v", c.mean, c.sd, p.SD())
		}
	}
}

func TestFitParetoDegenerate(t *testing.T) {
	p, err := FitPareto(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Mean()-10) > 1e-3 {
		t.Errorf("deterministic fit mean: %v", p.Mean())
	}
	if p.SD() > 0.1 {
		t.Errorf("deterministic fit sd too large: %v", p.SD())
	}
	if _, err := FitPareto(0, 1); err == nil {
		t.Error("zero mean should error")
	}
	if _, err := FitPareto(-5, 1); err == nil {
		t.Error("negative mean should error")
	}
}

func TestParetoSampleMoments(t *testing.T) {
	p, _ := FitPareto(20, 8)
	r := NewRNG(23)
	var s Summary
	for i := 0; i < 400000; i++ {
		s.Add(p.Sample(r))
	}
	if math.Abs(s.Mean()-20)/20 > 0.02 {
		t.Errorf("sample mean: got %v, want ~20", s.Mean())
	}
	if s.Min() < p.Xm-1e-9 {
		t.Errorf("sample below xm: %v < %v", s.Min(), p.Xm)
	}
}

func TestSpeedupEq3(t *testing.T) {
	// Eq. 3 with α = 2: h(r) = (2 − 1/r)/1 = 2 − 1/r.
	p := Pareto{Alpha: 2, Xm: 1}
	for r := 1; r <= 5; r++ {
		want := 2 - 1/float64(r)
		if got := p.Speedup(r); math.Abs(got-want) > 1e-12 {
			t.Errorf("h(%d) = %v, want %v", r, got, want)
		}
	}
	if p.Speedup(1) != 1 {
		t.Error("h(1) must equal 1")
	}
}

// Property: h is strictly increasing and concave in r, the paper's two
// assumptions on the speedup function.
func TestSpeedupShapeProperties(t *testing.T) {
	f := func(alphaRaw uint16) bool {
		alpha := 1.01 + float64(alphaRaw%1000)/100 // α in [1.01, 11)
		prev := ParetoSpeedup(alpha, 1)
		prevGain := math.Inf(1)
		for r := 2; r <= 16; r++ {
			h := ParetoSpeedup(alpha, r)
			if h <= prev {
				return false // must strictly increase
			}
			gain := h - prev
			if gain > prevGain+1e-12 {
				return false // must be concave (diminishing gains)
			}
			prev, prevGain = h, gain
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedupBounded(t *testing.T) {
	// h(r) → α/(α−1) as r → ∞; it must never exceed that bound.
	alpha := 3.0
	bound := alpha / (alpha - 1)
	for r := 1; r <= 1000; r *= 2 {
		if h := ParetoSpeedup(alpha, r); h > bound {
			t.Errorf("h(%d)=%v exceeds bound %v", r, h, bound)
		}
	}
}

func TestSpeedupPanicsOnBadR(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Speedup(0) should panic")
		}
	}()
	ParetoSpeedup(2, 0)
}
