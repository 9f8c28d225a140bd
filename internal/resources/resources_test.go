package resources

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecConstructors(t *testing.T) {
	v := Vec(1500, 2048)
	if v.CPUMilli != 1500 || v.MemMiB != 2048 {
		t.Fatalf("Vec: got %+v", v)
	}
	c := Cores(8, 16)
	if c.CPUMilli != 8000 || c.MemMiB != 16384 {
		t.Fatalf("Cores: got %+v", c)
	}
}

func TestAddSubScale(t *testing.T) {
	a := Vec(1000, 512)
	b := Vec(250, 128)
	if got := a.Add(b); got != Vec(1250, 640) {
		t.Errorf("Add: got %v", got)
	}
	if got := a.Sub(b); got != Vec(750, 384) {
		t.Errorf("Sub: got %v", got)
	}
	if got := b.Scale(3); got != Vec(750, 384) {
		t.Errorf("Scale: got %v", got)
	}
}

func TestFits(t *testing.T) {
	cases := []struct {
		d, c Vector
		want bool
	}{
		{Vec(100, 100), Vec(100, 100), true},
		{Vec(101, 100), Vec(100, 100), false},
		{Vec(100, 101), Vec(100, 100), false},
		{Vec(0, 0), Vec(0, 0), true},
		{Vec(1, 1), Vec(1000, 1), true},
	}
	for _, c := range cases {
		if got := c.d.Fits(c.c); got != c.want {
			t.Errorf("%v fits %v: got %v, want %v", c.d, c.c, got, c.want)
		}
	}
}

func TestIsZeroIsValid(t *testing.T) {
	if !Vec(0, 0).IsZero() || Vec(1, 0).IsZero() || Vec(0, 1).IsZero() {
		t.Error("IsZero wrong")
	}
	if !Vec(0, 0).IsValid() || Vec(-1, 0).IsValid() || Vec(0, -1).IsValid() {
		t.Error("IsValid wrong")
	}
}

func TestDominantShare(t *testing.T) {
	total := Cores(100, 200) // 100000 milli, 204800 MiB
	// CPU-dominant task.
	d := Cores(10, 10)
	got := d.DominantShare(total)
	if math.Abs(got-0.1) > 1e-12 {
		t.Errorf("cpu dominant: got %v", got)
	}
	// Memory-dominant task.
	d = Cores(1, 100)
	got = d.DominantShare(total)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mem dominant: got %v", got)
	}
}

func TestDotSymmetryAndPositivity(t *testing.T) {
	total := Cores(328, 648)
	a := Cores(2, 4)
	b := Cores(6, 8)
	if math.Abs(a.Dot(b, total)-b.Dot(a, total)) > 1e-15 {
		t.Error("Dot not symmetric")
	}
	if a.Dot(b, total) <= 0 {
		t.Error("Dot of positive vectors must be positive")
	}
}

// TestNormDotEqualsDot pins the hoisted-denominator form to Dot bit for
// bit: schedulers mix the two (the fit index and the head index score
// through Norm, the reference scans through Dot) and compare the
// results for equality.
func TestNormDotEqualsDot(t *testing.T) {
	const big = math.MaxInt64
	cases := []struct{ v, w, total Vector }{
		{Cores(2, 4), Cores(6, 12), Cores(328, 648)},
		{Vec(0, 0), Cores(6, 12), Cores(328, 648)},
		{Cores(2, 4), Vec(0, 0), Cores(328, 648)},
		{Vec(1, 1), Vec(1, 1), Vec(1, 1)},
		{Vec(1, 1), Vec(1, 1), Vec(3, 7)}, // thirds and sevenths: inexact quotients
		{Vec(big, big), Vec(big, big), Vec(1, 1)},
		{Vec(big, 1), Vec(1, big), Vec(big, big)},
		{Vec(1, 1), Vec(1, 1), Vec(big, big)},
		{Vec(1<<53+1, 1<<53+1), Vec(3, 3), Vec(1<<31+1, 1<<31+1)}, // beyond float64's exact integers
		{Vec(-5, 3), Vec(7, -2), Vec(11, 13)},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		// Magnitudes from 1 to 2^62, so products round at every scale.
		draw := func() int64 { return rng.Int63() >> uint(rng.Intn(63)) }
		cases = append(cases, struct{ v, w, total Vector }{
			Vec(draw(), draw()), Vec(draw(), draw()), Vec(1+draw(), 1+draw()),
		})
	}
	for _, c := range cases {
		want := c.v.Dot(c.w, c.total)
		if got := NormOf(c.total).Dot(c.v, c.w); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormOf(%+v).Dot(%+v, %+v) = %v (%#x), Dot gives %v (%#x)",
				c.total, c.v, c.w, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestMaxMin(t *testing.T) {
	a, b := Vec(5, 1), Vec(3, 9)
	if got := a.Max(b); got != Vec(5, 9) {
		t.Errorf("Max: got %v", got)
	}
	if got := a.Min(b); got != Vec(3, 1) {
		t.Errorf("Min: got %v", got)
	}
}

func TestUsage(t *testing.T) {
	var u Usage
	u.AddFor(Vec(1000, 1024), 10)
	u.AddFor(Vec(500, 512), 4)
	if u.CPUMilliSlots != 12000 || u.MemMiBSlots != 12288 {
		t.Fatalf("usage: %+v", u)
	}
	var v Usage
	v.AddFor(Vec(1, 1), 1)
	u.Merge(v)
	if u.CPUMilliSlots != 12001 || u.MemMiBSlots != 12289 {
		t.Fatalf("merge: %+v", u)
	}
	n := Usage{CPUMilliSlots: 500, MemMiBSlots: 1024}.Normalized(Vec(1000, 2048))
	if math.Abs(n-1.0) > 1e-12 {
		t.Errorf("normalized: got %v", n)
	}
}

func TestString(t *testing.T) {
	if s := Cores(8, 16).String(); s != "8.00c/16.0GiB" {
		t.Errorf("String: got %q", s)
	}
}

// Property: Add is commutative and associative; Sub inverts Add.
func TestAddProperties(t *testing.T) {
	small := func(v Vector) Vector {
		return Vec(v.CPUMilli%1_000_000, v.MemMiB%1_000_000)
	}
	comm := func(a, b Vector) bool {
		a, b = small(a), small(b)
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(a, b, c Vector) bool {
		a, b, c = small(a), small(b), small(c)
		return a.Add(b).Add(c) == a.Add(b.Add(c))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
	inv := func(a, b Vector) bool {
		a, b = small(a), small(b)
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(inv, nil); err != nil {
		t.Error(err)
	}
}

// Property: Fits is a partial order (reflexive, antisymmetric on valid
// vectors, transitive).
func TestFitsProperties(t *testing.T) {
	refl := func(a Vector) bool { return a.Fits(a) }
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
	trans := func(a, b, c Vector) bool {
		if a.Fits(b) && b.Fits(c) {
			return a.Fits(c)
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Error(err)
	}
	antisym := func(a, b Vector) bool {
		if a.Fits(b) && b.Fits(a) {
			return a == b
		}
		return true
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
}

// Property: DominantShare scales linearly with demand.
func TestDominantShareScaling(t *testing.T) {
	total := Cores(1000, 2000)
	f := func(c, m uint16, k uint8) bool {
		if k == 0 {
			return true
		}
		v := Vec(int64(c), int64(m))
		lhs := v.Scale(int64(k)).DominantShare(total)
		rhs := float64(k) * v.DominantShare(total)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
