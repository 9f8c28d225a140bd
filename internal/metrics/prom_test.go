package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestUnion(t *testing.T) {
	a := Labels{"shard": "0", "x": "a"}
	b := Labels{"x": "b", "y": "c"}
	u := Union(a, b)
	if u["shard"] != "0" || u["x"] != "b" || u["y"] != "c" || len(u) != 3 {
		t.Fatalf("union: %v", u)
	}
	// Inputs untouched.
	if a["x"] != "a" || len(b) != 2 {
		t.Fatalf("inputs modified: %v %v", a, b)
	}
	if u := Union(nil, nil); len(u) != 0 {
		t.Fatalf("nil union: %v", u)
	}
}

func TestPromCounterGaugeOutput(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jobs_total", "Jobs seen.", nil)
	g := reg.Gauge("queue_depth", "Queued jobs.", Labels{"pool": "default"})
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(-2)
	out := reg.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs seen.",
		"# TYPE jobs_total counter",
		"jobs_total 4",
		"# TYPE queue_depth gauge",
		`queue_depth{pool="default"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if _, err := ParsePromText(strings.NewReader(out)); err != nil {
		t.Fatalf("self-parse: %v", err)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("weird", "has \\ and \nnewline", Labels{"v": "a\"b\\c\nd"}).Set(1)
	out := reg.String()
	if !strings.Contains(out, `# HELP weird has \\ and \nnewline`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `weird{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	samples, err := ParsePromText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("self-parse: %v", err)
	}
	// Round trip: the parser unescapes and re-canonicalizes to the same
	// escaped form.
	if _, ok := samples[`weird{v="a\"b\\c\nd"}`]; !ok {
		t.Errorf("escaped series lost in round trip: %v", samples)
	}
}

func TestPromHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("jct_slots", "Job completion time.", []float64{1, 5, 25}, Labels{"sched": "dollymp2"})
	for _, v := range []float64{0.5, 3, 3, 24, 100} {
		h.Observe(v)
	}
	out := reg.String()
	for _, want := range []string{
		`jct_slots_bucket{sched="dollymp2",le="1"} 1`,
		`jct_slots_bucket{sched="dollymp2",le="5"} 3`,
		`jct_slots_bucket{sched="dollymp2",le="25"} 4`,
		`jct_slots_bucket{sched="dollymp2",le="+Inf"} 5`,
		`jct_slots_sum{sched="dollymp2"} 130.5`,
		`jct_slots_count{sched="dollymp2"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 || h.Sum() != 130.5 {
		t.Errorf("accessors: count %d sum %v", h.Count(), h.Sum())
	}
	if _, err := ParsePromText(strings.NewReader(out)); err != nil {
		t.Fatalf("self-parse: %v", err)
	}
}

func TestPromHistogramBoundaryIsInclusive(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "", []float64{10}, nil)
	h.Observe(10) // le="10" is an upper *inclusive* bound
	if !strings.Contains(reg.String(), `h_bucket{le="10"} 1`) {
		t.Fatalf("observation equal to the bound must land in the bucket:\n%s", reg.String())
	}
}

func TestPromConstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	reg := NewRegistry()
	mustPanic("bad metric name", func() { reg.Counter("0bad", "", nil) })
	mustPanic("bad label name", func() { reg.Counter("ok", "", Labels{"0bad": "v"}) })
	mustPanic("reserved le", func() { reg.Histogram("h", "", []float64{1}, Labels{"le": "x"}) })
	mustPanic("non-increasing buckets", func() { reg.Histogram("h2", "", []float64{1, 1}, nil) })
	mustPanic("infinite bucket", func() { reg.Histogram("h3", "", []float64{1, math.Inf(1)}, nil) })
	reg.Counter("dup", "", Labels{"a": "1"})
	mustPanic("duplicate series", func() { reg.Counter("dup", "", Labels{"a": "1"}) })
	mustPanic("type mismatch", func() { reg.Gauge("dup", "", Labels{"a": "2"}) })
	c := reg.Counter("mono", "", nil)
	mustPanic("counter decrease", func() { c.Add(-1) })
}

func TestPromConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c", "", nil)
	h := reg.Histogram("h", "", []float64{1, 2, 4}, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 5))
				_ = reg.String()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter lost updates: %v", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram lost updates: %v", h.Count())
	}
}

func TestParsePromTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "x 1\n# TYPE x counter\n",
		"unknown type":       "# TYPE x foo\nx 1\n",
		"duplicate TYPE":     "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"duplicate series":   "# TYPE x counter\nx 1\nx 2\n",
		"bad value":          "# TYPE x counter\nx one\n",
		"no value":           "# TYPE x counter\nx\n",
		"unterminated label": "# TYPE x counter\nx{a=\"b 1\n",
		"bad escape":         "# TYPE x counter\nx{a=\"\\q\"} 1\n",
		"decreasing buckets": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing +Inf":       "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"inf != count":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
		"missing _count":     "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\n",
	}
	for name, text := range cases {
		if _, err := ParsePromText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parser accepted %q", name, text)
		}
	}
}

func TestParsePromTextValues(t *testing.T) {
	text := "# TYPE up gauge\nup 1\n# TYPE rq counter\nrq{code=\"200\",method=\"get\"} 42 1700000000\n"
	samples, err := ParsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if s := samples["up"]; s.Value != 1 {
		t.Errorf("up = %v", s.Value)
	}
	// Label order canonicalizes, timestamps are tolerated.
	if s, ok := samples[`rq{code="200",method="get"}`]; !ok || s.Value != 42 {
		t.Errorf("rq sample: %+v (have %v)", s, samples)
	}
}
