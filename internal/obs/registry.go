// Package obs is the repo's dependency-free observability subsystem:
// an atomic metrics registry rendered in Prometheus text exposition
// format, a span tracer that emits Chrome trace-event JSON (openable
// in Perfetto), and a structured key=value event log.
//
// Two invariants bound everything in this package:
//
//   - The mitigation act path stays 0 allocs/act with metrics enabled.
//     Hot paths never touch the registry directly; they accumulate
//     plain integers locally and flush deltas into sharded atomics at
//     refresh-interval boundaries (see memctrl.Lane.fireRefreshInterval).
//   - Observability never perturbs determinism. Metrics, spans, and
//     events are strictly write-only taps on existing seams — no
//     simulation or campaign code path reads an obs value to make a
//     decision, and a property test runs identical campaigns obs-on
//     vs obs-off requiring byte-identical Results and reports.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricsEnabled gates the sampled hot-path flushes. It defaults to
// on; the determinism property test and the alloc-gate baseline leg
// turn it off to measure the uninstrumented path.
var metricsEnabled atomic.Bool

func init() { metricsEnabled.Store(true) }

// MetricsEnabled reports whether hot-path metric flushes should run.
func MetricsEnabled() bool { return metricsEnabled.Load() }

// SetMetricsEnabled toggles hot-path metric flushes. Registry writes
// from cold paths are unconditional; this switch only gates the
// per-block access flushes so benchmarks can isolate obs cost.
func SetMetricsEnabled(on bool) { metricsEnabled.Store(on) }

// A Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are a caller bug; they are ignored so a
// miscomputed delta can never make a counter go backwards.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to n if n is larger (high-water mark).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A Histogram is a fixed-bucket cumulative histogram. Bounds are set
// at registration and never change, so observation is lock-free.
type Histogram struct {
	bounds  []float64       // upper bounds, ascending; +Inf implicit
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one labeled time series inside a family.
type series struct {
	labels string // rendered label block, e.g. `{kind="torn_write"}`; "" if unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one metric name with its HELP/TYPE block and all its
// labeled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	byKey  map[string]*series
}

// A Registry holds metric families and renders them as Prometheus
// text exposition format. Registration is mutex-guarded and expected
// at init or other cold paths; reads of registered metrics are
// lock-free atomics.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Default is the process-wide registry all package-level metrics
// (see metrics.go) register against, and the one the serve layer
// exposes at GET /metrics.
var Default = NewRegistry()

func validName(s string) bool {
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

// renderLabels turns ("kind","torn_write","fs","chaos") into
// `{fs="chaos",kind="torn_write"}` with keys sorted for stable output.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if !validName(kv[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", kv[i]))
		}
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// lookup finds or creates the (family, series) for name+labels.
// Re-registering the same name+labels returns the existing metric, so
// package-level vars and tests can both call the constructors freely.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.families = append(r.families, f)
		r.byName[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
	}
	if s := f.byKey[key]; s != nil {
		return s
	}
	s := &series{labels: key}
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	f.byKey[key] = s
	return s
}

// Counter registers (or returns the existing) counter with the given
// name and optional label key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.lookup(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram registers (or returns the existing) histogram with the
// given ascending bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending", name))
		}
	}
	s := r.lookup(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return s.h
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4). Families appear in registration
// order; series within a family are sorted by label block.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		typ := "counter"
		switch f.kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ); err != nil {
			return err
		}
		for _, s := range f.series {
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.g.Value())
			case kindHistogram:
				err = writeHistogram(w, f.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.h
	// bucket{le="..."} lines carry the le label merged into any series
	// labels; cumulative counts per the exposition format.
	inner := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.buckets[i].Load()
		if err := writeBucket(w, name, inner, formatFloat(ub), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if err := writeBucket(w, name, inner, "+Inf", cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, h.Count())
	return err
}

func writeBucket(w io.Writer, name, inner, le string, cum uint64) error {
	if inner != "" {
		_, err := fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, inner, le, cum)
		return err
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
	return err
}
