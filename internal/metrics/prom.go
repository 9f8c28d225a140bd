package metrics

// A minimal Prometheus text-exposition encoder (format version 0.0.4)
// for the service's /metrics endpoint, plus a strict parser the load
// generator and smoke tests use to certify the output. Stdlib only by
// design: the repo takes no dependencies, and the subset the service
// needs — counters, gauges, fixed-bucket histograms with constant
// labels — is small enough to own.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels is a set of constant label name → value pairs attached to one
// metric series.
type Labels map[string]string

// Union returns the union of two label sets. Keys in b override keys in
// a; neither input is modified. It is how a component combines its
// injected base labels (shard="3") with a series' own labels
// (resource="cpu").
func Union(a, b Labels) Labels {
	out := make(Labels, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

type family struct {
	name, help, typ string
	series          []promSeries
}

type promSeries interface {
	labelKey() string
	write(w io.Writer, fam *family) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// metricNameOK matches the Prometheus metric-name grammar.
func metricNameOK(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func labelNameOK(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return metricNameOK(s)
}

// register validates and files one series under its family, panicking on
// misuse (invalid names, type/help mismatch, duplicate label set) —
// metric construction happens once at startup, where a panic is a build
// error, not a runtime hazard.
func (r *Registry) register(name, help, typ string, labels Labels, s promSeries) {
	if !metricNameOK(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for k := range labels {
		if !labelNameOK(k) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", k, name))
		}
		if k == "le" {
			panic(fmt.Sprintf("metrics: reserved label %q on %q", k, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ}
		r.families[name] = fam
		r.order = append(r.order, name)
	}
	if fam.typ != typ || fam.help != help {
		panic(fmt.Sprintf("metrics: metric %q re-registered with different type or help", name))
	}
	key := s.labelKey()
	for _, old := range fam.series {
		if old.labelKey() == key {
			panic(fmt.Sprintf("metrics: duplicate series %s%s", name, key))
		}
	}
	fam.series = append(fam.series, s)
}

// Counter registers and returns a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{key: renderLabels(labels, "", "")}
	r.register(name, help, "counter", labels, c)
	return c
}

// CounterFunc registers a counter whose value is read from read at
// every scrape: the series restates a total its owner already keeps, so
// there is no second copy to keep in step. read must be safe to call
// from any goroutine and must never decrease.
func (r *Registry) CounterFunc(name, help string, labels Labels, read func() float64) {
	r.register(name, help, "counter", labels, funcSeries{renderLabels(labels, "", ""), read})
}

// GaugeFunc registers a gauge whose value is read from read at every
// scrape. read must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, labels Labels, read func() float64) {
	r.register(name, help, "gauge", labels, funcSeries{renderLabels(labels, "", ""), read})
}

// Histogram registers and returns a fixed-bucket histogram. Bucket upper
// bounds must be finite and strictly increasing; the +Inf bucket is
// implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
	}
	for i, b := range buckets {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("metrics: histogram %q bucket %v is not finite", name, b))
		}
		if i > 0 && b <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly increasing at %v", name, b))
		}
	}
	h := &Histogram{
		key:    renderLabels(labels, "", ""),
		bounds: append([]float64(nil), buckets...),
		bucket: make([]uint64, len(buckets)),
	}
	for _, b := range buckets {
		h.leKeys = append(h.leKeys, renderLabels(labels, "le", formatValue(b)))
	}
	h.leKeys = append(h.leKeys, renderLabels(labels, "le", "+Inf"))
	r.register(name, help, "histogram", labels, h)
	return h
}

// Write renders every family in registration order: HELP and TYPE
// headers followed by the family's series. The series are read outside
// the registry's lock, so a CounterFunc or GaugeFunc may take its
// owner's.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	fams := make([]family, len(r.order))
	for i, name := range r.order {
		fams[i] = *r.families[name]
	}
	r.mu.Unlock()
	for i := range fams {
		fam := &fams[i]
		if fam.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.name, escapeHelp(fam.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.typ); err != nil {
			return err
		}
		for _, s := range fam.series {
			if err := s.write(w, fam); err != nil {
				return err
			}
		}
	}
	return nil
}

// String renders the registry to a string (tests and debugging).
func (r *Registry) String() string {
	var b strings.Builder
	_ = r.Write(&b)
	return b.String()
}

// escapeHelp escapes backslash and newline per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue additionally escapes double quotes.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// renderLabels renders {k="v",...} with names sorted, plus optional
// extra pairs (the histogram's le). Empty label sets render as "".
func renderLabels(labels Labels, extraK, extraV string) string {
	if len(labels) == 0 && extraK == "" {
		return ""
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabelValue(labels[k]))
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraK, escapeLabelValue(extraV))
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing value.
type Counter struct {
	mu  sync.Mutex
	v   float64
	key string // the constant labels, rendered once: every scrape writes them
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas panic (counters are
// monotonic by contract).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("metrics: counter decrease")
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value returns the current value.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

func (c *Counter) labelKey() string { return c.key }

func (c *Counter) write(w io.Writer, fam *family) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", fam.name, c.labelKey(), formatValue(c.Value()))
	return err
}

// funcSeries is a counter or gauge read from its owner at scrape time.
type funcSeries struct {
	key  string
	read func() float64
}

func (f funcSeries) labelKey() string { return f.key }

func (f funcSeries) write(w io.Writer, fam *family) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", fam.name, f.key, formatValue(f.read()))
	return err
}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	key    string
	leKeys []string  // the labels with le added, per bound and then +Inf
	bounds []float64 // strictly increasing upper bounds, +Inf implicit
	bucket []uint64  // per-bound (non-cumulative) counts
	count  uint64
	sum    float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	if i < len(h.bounds) {
		h.bucket[i]++
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

func (h *Histogram) labelKey() string { return h.key }

func (h *Histogram) write(w io.Writer, fam *family) error {
	h.mu.Lock()
	bounds := h.bounds
	cum := make([]uint64, len(h.bucket))
	var run uint64
	for i, n := range h.bucket {
		run += n
		cum[i] = run
	}
	count, sum := h.count, h.sum
	h.mu.Unlock()

	for i := range bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, h.leKeys[i], cum[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, h.leKeys[len(bounds)], count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, h.labelKey(), formatValue(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.name, h.labelKey(), count)
	return err
}

// PromSample is one parsed sample line: metric name, canonicalized label
// string (sorted, le included), and value.
type PromSample struct {
	Name   string
	Labels string // canonical "{k=\"v\",...}" or ""
	Value  float64
}

// ParsePromText strictly parses Prometheus text exposition format and
// cross-checks its structural invariants: every sample belongs to a
// family whose TYPE comment precedes it, histogram bucket counts are
// monotone in le, the +Inf bucket equals _count, and no series repeats.
// It returns all samples keyed by Name+Labels. This is the certificate
// the e2e smoke and the load generator run against /metrics output.
func ParsePromText(r io.Reader) (map[string]PromSample, error) {
	samples := make(map[string]PromSample)
	types := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("metrics: line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] == "TYPE" {
				if len(fields) < 4 {
					return nil, fmt.Errorf("metrics: line %d: TYPE missing type", lineNo)
				}
				name, typ := fields[2], strings.TrimSpace(fields[3])
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("metrics: line %d: unknown type %q", lineNo, typ)
				}
				if _, dup := types[name]; dup {
					return nil, fmt.Errorf("metrics: line %d: duplicate TYPE for %q", lineNo, name)
				}
				types[name] = typ
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		base := histogramBase(s.Name)
		if _, ok := types[s.Name]; !ok {
			if _, ok := types[base]; !ok {
				return nil, fmt.Errorf("metrics: line %d: sample %q precedes its TYPE", lineNo, s.Name)
			}
		}
		key := s.Name + s.Labels
		if _, dup := samples[key]; dup {
			return nil, fmt.Errorf("metrics: line %d: duplicate series %s", lineNo, key)
		}
		samples[key] = s
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if err := checkHistograms(samples, types); err != nil {
		return nil, err
	}
	return samples, nil
}

// histogramBase strips a histogram sample suffix, returning the family
// name ("x_bucket" → "x"); returns the input unchanged when no suffix
// applies.
func histogramBase(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if b, ok := strings.CutSuffix(name, suf); ok {
			return b
		}
	}
	return name
}

func parseSampleLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	brace := strings.IndexByte(rest, '{')
	var name, labels string
	if brace >= 0 {
		name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		var err error
		labels, err = canonicalLabels(rest[brace+1 : end])
		if err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return s, fmt.Errorf("sample %q has no value", line)
		}
		name = rest[:sp]
		rest = strings.TrimSpace(rest[sp:])
	}
	if !metricNameOK(name) {
		return s, fmt.Errorf("invalid metric name %q", name)
	}
	// A sample line is value [timestamp]; take the first field.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %q has %d trailing fields, want value [timestamp]", line, len(fields))
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("sample %q: %w", line, err)
	}
	s.Name, s.Labels, s.Value = name, labels, v
	return s, nil
}

func parsePromValue(f string) (float64, error) {
	switch f {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(f, 64)
}

// canonicalLabels parses the inside of a {...} label set and re-renders
// it with names sorted, so equal label sets compare equal as strings.
// Values are carried in their escaped form: the three escapes the format
// allows are exactly the three escapeLabelValue writes, so a valid value
// is already its own canonical rendering.
func canonicalLabels(s string) (string, error) {
	type kv struct{ k, v string }
	var buf [8]kv // more labels than any series here carries; append grows past it
	pairs := buf[:0]
	i := 0
	for i < len(s) {
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			return "", fmt.Errorf("label pair missing '=' in %q", s)
		}
		name := strings.TrimSpace(s[i : i+j])
		if !labelNameOK(name) && name != "le" {
			return "", fmt.Errorf("invalid label name %q", name)
		}
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return "", fmt.Errorf("label %q value not quoted", name)
		}
		i++
		start := i
		for {
			if i >= len(s) {
				return "", fmt.Errorf("unterminated value for label %q", name)
			}
			c := s[i]
			if c == '"' {
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return "", fmt.Errorf("dangling escape in label %q", name)
				}
				switch s[i+1] {
				case '\\', '"', 'n':
				default:
					return "", fmt.Errorf("bad escape \\%c in label %q", s[i+1], name)
				}
				i++
			}
			i++
		}
		pairs = append(pairs, kv{name, s[start:i]})
		i++
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
	if len(pairs) == 0 {
		return "", nil
	}
	// A handful of pairs, usually sorted already but for a trailing le.
	for a := 1; a < len(pairs); a++ {
		for b := a; b > 0 && pairs[b].k < pairs[b-1].k; b-- {
			pairs[b], pairs[b-1] = pairs[b-1], pairs[b]
		}
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(p.v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String(), nil
}

// checkHistograms validates bucket monotonicity and _count/_sum
// consistency for every histogram family in the sample set.
func checkHistograms(samples map[string]PromSample, types map[string]string) error {
	type bucket struct {
		le float64
		n  float64
	}
	perSeries := make(map[string][]bucket) // family+labels-without-le → buckets
	for _, s := range samples {
		base, ok := strings.CutSuffix(s.Name, "_bucket")
		if !ok || types[base] != "histogram" {
			continue
		}
		le, rest, err := extractLE(s.Labels)
		if err != nil {
			return fmt.Errorf("metrics: %s%s: %w", s.Name, s.Labels, err)
		}
		key := base + rest
		perSeries[key] = append(perSeries[key], bucket{le, s.Value})
	}
	for key, bs := range perSeries {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		for i := 1; i < len(bs); i++ {
			if bs[i].n < bs[i-1].n {
				return fmt.Errorf("metrics: histogram %s bucket counts decrease at le=%v (%v < %v)",
					key, bs[i].le, bs[i].n, bs[i-1].n)
			}
		}
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("metrics: histogram %s missing +Inf bucket", key)
		}
		// key is base+labels; the _count series shares the labels.
		base := key
		labels := ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			base, labels = key[:i], key[i:]
		}
		count, ok := samples[base+"_count"+labels]
		if !ok {
			return fmt.Errorf("metrics: histogram %s missing _count", key)
		}
		if count.Value != last.n {
			return fmt.Errorf("metrics: histogram %s +Inf bucket %v != _count %v", key, last.n, count.Value)
		}
		if _, ok := samples[base+"_sum"+labels]; !ok {
			return fmt.Errorf("metrics: histogram %s missing _sum", key)
		}
	}
	return nil
}

// extractLE removes the le pair from a canonical label string, returning
// its parsed value and the remaining canonical label string.
func extractLE(labels string) (float64, string, error) {
	if labels == "" {
		return 0, "", fmt.Errorf("bucket sample has no le label")
	}
	inner := labels[1 : len(labels)-1]
	for start := 0; start < len(inner); {
		// A pair ends at the first comma outside quotes.
		end, quoted := start, false
		for ; end < len(inner) && (quoted || inner[end] != ','); end++ {
			switch inner[end] {
			case '\\':
				end++
			case '"':
				quoted = !quoted
			}
		}
		end = min(end, len(inner))
		if p := inner[start:end]; strings.HasPrefix(p, `le="`) {
			le, err := parsePromValue(strings.TrimSuffix(p[len(`le="`):], `"`))
			if err != nil || math.IsNaN(le) {
				return 0, "", fmt.Errorf("bad le value in %q", p)
			}
			// Drop the pair with the comma that joined it to a neighbour.
			rest := strings.TrimSuffix(inner[:start]+inner[min(end+1, len(inner)):], ",")
			if rest == "" {
				return le, "", nil
			}
			return le, "{" + rest + "}", nil
		}
		start = end + 1
	}
	return 0, "", fmt.Errorf("bucket sample has no le label")
}
