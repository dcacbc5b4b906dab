// Package obs is the shared observability substrate of the repository:
// a stdlib-only metrics registry with Prometheus-style text exposition, a
// span/event tracer exporting the Chrome trace-event JSON format, and
// structured JSONL telemetry sinks for training.
//
// Every subsystem — the discrete-event simulator, the A2C/PPO trainers and
// the serving daemon — records into these primitives instead of growing its
// own ad-hoc counters, so the signals one later perf PR optimises against are
// the same signals every other layer reports.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add increments by delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a metric that can go up and down (an int64, which covers every
// gauge in this repository: in-flight requests, queue depths, residency).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments (or, with a negative delta, decrements) the value.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Cheap enough for request paths:
// one mutex-guarded slot increment per observation.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	mu     sync.Mutex
	counts []uint64 // len(bounds)+1
	sum    float64
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra trailing
	// element for the +Inf bucket. Counts are per-bucket, not cumulative.
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram state under its lock.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
	return s
}

// metricKind discriminates family types for exposition and double-register
// checks.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric with zero or more labelled children.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string // label names; empty for unlabelled metrics

	bounds []float64      // histogram families only
	fn     func() float64 // gauge-func families only

	mu       sync.Mutex
	children map[string]any // label-value key -> *Counter | *Gauge | *Histogram
	order    []string       // insertion order of keys, for stable exposition
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different type", name))
		}
		return f
	}
	f = &family{name: name, help: help, kind: kind, labels: labels, children: make(map[string]any)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// Counter registers (or returns the existing) unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns the existing) unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at exposition time.
// Useful for runtime stats (goroutines, heap) and derived ratios.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGaugeFunc, nil)
	f.fn = fn
}

// Histogram registers (or returns the existing) unlabelled histogram with the
// given ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.family(name, help, kindHistogram, nil)
	f.bounds = bounds
	return f.child(nil, func() any { return newHistogram(bounds) }).(*Histogram)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// CounterVec is a counter family with one or more labels.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	return &CounterVec{f: r.family(name, help, kindCounter, labels)}
}

// With returns the counter for the given label values, creating it on first
// use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with one or more labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("obs: GaugeVec needs at least one label")
	}
	return &GaugeVec{f: r.family(name, help, kindGauge, labels)}
}

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family with one or more labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labelled histogram family with shared buckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec needs at least one label")
	}
	f := r.family(name, help, kindHistogram, labels)
	f.bounds = bounds
	return &HistogramVec{f: f}
}

// With returns the histogram for the given label values, creating it on first
// use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

func (f *family) labelValues() [][]string {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	f.mu.Unlock()
	sort.Strings(keys)
	out := make([][]string, 0, len(keys))
	for _, k := range keys {
		if len(f.labels) == 0 {
			out = append(out, nil)
			continue
		}
		out = append(out, strings.Split(k, "\x00"))
	}
	return out
}

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers, one line per sample, histograms as
// cumulative _bucket/_sum/_count series. Families appear in registration
// order and children in sorted label order, so output is deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	for _, f := range r.ordered() {
		if err := f.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

// ordered returns the families in registration order.
func (r *Registry) ordered() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, len(r.order))
	for i, name := range r.order {
		fams[i] = r.families[name]
	}
	return fams
}

// WriteJSON renders the same samples as WriteText as one JSON object keyed by
// family name (keys sorted, so output is deterministic): an unlabelled counter
// or gauge is a number, a labelled family an object keyed by its label values
// (joined by "," when there are several), and a histogram
// {"count", "sum", "buckets"} with cumulative counts keyed by upper bound,
// "+Inf" last.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]any)
	for _, f := range r.ordered() {
		out[f.name] = f.jsonValue()
	}
	return json.NewEncoder(w).Encode(out)
}

func (f *family) jsonValue() any {
	if f.kind == kindGaugeFunc {
		return f.fn()
	}
	byLabel := make(map[string]any)
	for _, values := range f.labelValues() {
		f.mu.Lock()
		c := f.children[strings.Join(values, "\x00")]
		f.mu.Unlock()
		var v any
		switch m := c.(type) {
		case *Counter:
			v = m.Value()
		case *Gauge:
			v = m.Value()
		case *Histogram:
			s := m.Snapshot()
			buckets := make(map[string]uint64, len(s.Counts))
			var cum uint64
			for i, n := range s.Counts {
				cum += n
				le := "+Inf"
				if i < len(s.Bounds) {
					le = formatFloat(s.Bounds[i])
				}
				buckets[le] = cum
			}
			v = map[string]any{"count": s.Count, "sum": s.Sum, "buckets": buckets}
		}
		if len(f.labels) == 0 {
			return v
		}
		byLabel[strings.Join(values, ",")] = v
	}
	return byLabel
}

func (f *family) writeText(w io.Writer) error {
	var b strings.Builder
	if f.help != "" {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
	}
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
	if f.kind == kindGaugeFunc {
		fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(f.fn()))
		_, err := io.WriteString(w, b.String())
		return err
	}
	for _, values := range f.labelValues() {
		key := strings.Join(values, "\x00")
		f.mu.Lock()
		c := f.children[key]
		f.mu.Unlock()
		labels := formatLabels(f.labels, values)
		switch m := c.(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s%s %d\n", f.name, labels, m.Value())
		case *Gauge:
			fmt.Fprintf(&b, "%s%s %d\n", f.name, labels, m.Value())
		case *Histogram:
			s := m.Snapshot()
			var cum uint64
			for i, bound := range s.Bounds {
				cum += s.Counts[i]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					formatLabels(append(f.labels, "le"), append(append([]string(nil), values...), formatFloat(bound))), cum)
			}
			cum += s.Counts[len(s.Bounds)]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
				formatLabels(append(f.labels, "le"), append(append([]string(nil), values...), "+Inf")), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labels, formatFloat(s.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labels, s.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
