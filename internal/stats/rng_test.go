package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds should give different streams, %d/100 collisions", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	c1 := root.Split(1)
	c2 := root.Split(2)
	// Splitting must not advance the parent.
	c1again := NewRNG(7).Split(1)
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c1again.Uint64() {
			t.Fatal("Split must be deterministic and not consume parent state")
		}
	}
	// Different tags give different streams.
	c1 = NewRNG(7).Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("sibling streams should differ")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("digit %d frequency %v, want ~0.1", d, frac)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Exp(3.0))
	}
	if math.Abs(s.Mean()-3.0) > 0.05 {
		t.Errorf("Exp mean: got %v, want ~3", s.Mean())
	}
}

func TestRangeAndBool(t *testing.T) {
	r := NewRNG(19)
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 7)
		if v < 5 || v >= 7 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
	trues := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	frac := float64(trues) / 100000
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) frequency %v", frac)
	}
}

func TestInt63n(t *testing.T) {
	r := NewRNG(29)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(0) should panic")
		}
	}()
	r.Int63n(0)
}
