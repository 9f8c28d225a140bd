package estimate

import (
	"math"
	"testing"
)

func TestDefaults(t *testing.T) {
	e := New(Config{})
	est := e.Estimate(Key{"wc", "map"}, 0, 0, 0)
	if est.Source != FromPrior || est.Mean != 10 || est.SD != 5 {
		t.Fatalf("prior fallback: %+v", est)
	}
	if len(e.byPhase) != 0 {
		t.Fatal("no history expected")
	}
}

func TestCurrentPhaseWins(t *testing.T) {
	e := New(Config{MinSamples: 3})
	est := e.Estimate(Key{"wc", "map"}, 12, 4, 3)
	if est.Source != FromCurrentPhase || est.Mean != 12 || est.SD != 4 {
		t.Fatalf("current phase: %+v", est)
	}
	// Below the sampling threshold: not trusted.
	est = e.Estimate(Key{"wc", "map"}, 12, 4, 2)
	if est.Source == FromCurrentPhase {
		t.Fatalf("2 samples should not qualify: %+v", est)
	}
}

func TestRecurringJobHistory(t *testing.T) {
	e := New(Config{MinSamples: 3})
	key := Key{"wc", "map"}
	e.Record(key, 20, 8, 5) // an earlier job's phase completed
	est := e.Estimate(key, 0, 0, 0)
	if est.Source != FromRecurring {
		t.Fatalf("recurring history expected: %+v", est)
	}
	if math.Abs(est.Mean-20) > 1e-9 || est.SD != 8 {
		t.Fatalf("recurring estimate: %+v", est)
	}
	if len(e.byPhase) != 1 {
		t.Fatal("one phase class expected")
	}
}

func TestFrameworkFallback(t *testing.T) {
	e := New(Config{MinSamples: 3})
	// History for a DIFFERENT phase of the same app.
	e.Record(Key{"wc", "map"}, 20, 8, 5)
	est := e.Estimate(Key{"wc", "reduce"}, 0, 0, 0)
	if est.Source != FromFramework {
		t.Fatalf("framework fallback expected: %+v", est)
	}
	if math.Abs(est.Mean-20) > 1e-9 {
		t.Fatalf("framework mean: %+v", est)
	}
	// A different app has no history at all.
	est = e.Estimate(Key{"pr", "iter"}, 0, 0, 0)
	if est.Source != FromPrior {
		t.Fatalf("other app should hit the prior: %+v", est)
	}
}

func TestRecordIsIncrementIdempotent(t *testing.T) {
	e := New(Config{MinSamples: 2})
	key := Key{"wc", "map"}
	e.Record(key, 10, 2, 4)
	e.Record(key, 10, 2, 4) // same report again: no double counting
	e.Record(key, 10, 2, 3) // stale report: ignored
	est := e.Estimate(key, 0, 0, 0)
	if math.Abs(est.Mean-10) > 1e-9 {
		t.Fatalf("mean drifted: %+v", est)
	}
	// Growing n folds only the increment.
	e.Record(key, 30, 2, 8) // 4 new samples at reported mean 30
	est = e.Estimate(key, 0, 0, 0)
	if math.Abs(est.Mean-20) > 1e-9 { // (4×10 + 4×30)/8
		t.Fatalf("incremental mean: %+v", est)
	}
}

func TestSDHintKeepsMax(t *testing.T) {
	e := New(Config{MinSamples: 1})
	key := Key{"wc", "map"}
	e.Record(key, 10, 9, 2)
	e.Record(key, 10, 3, 4) // lower sd later must not shrink the hint
	est := e.Estimate(key, 0, 0, 0)
	if est.SD != 9 {
		t.Fatalf("sd hint: %+v", est)
	}
}

func TestSourceString(t *testing.T) {
	names := map[Source]string{
		FromCurrentPhase: "current-phase",
		FromRecurring:    "recurring-job",
		FromFramework:    "framework",
		FromPrior:        "prior",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("%d: %q != %q", s, got, want)
		}
	}
}
