// Package obs is the cluster observability layer: a dependency-free
// metrics core (atomic counters, gauges and fixed-bucket histograms
// collected into a Registry that renders the Prometheus text exposition
// format), a strict parser for that format (tests and CI lint every
// rendered page through it), and a thin log/slog-based structured
// logging setup with per-subsystem component tags (log.go).
//
// Why no client_golang dependency: the stack's hot paths (datalink token
// cycles, tcp write coalescing, smr round application) tick millions of
// times per experiment run, and the repository's hard rule is that
// simulated experiments stay byte-identical across runs — so the
// instruments must be allocation-free, lock-free on the increment path,
// and free of background goroutines or global state. The subset of
// Prometheus actually needed (counter, gauge, histogram, text
// exposition) is small enough that owning it outright costs less than
// gating a vendored dependency, and it keeps the container build
// hermetic (no module downloads). BenchmarkObsHotPath guards the
// 0 allocs/op contract.
//
// Usage: instruments are created (or attached) once at wiring time —
// Registry methods are idempotent for an identical (name, labels,
// type) triple — and the returned pointer is incremented on the hot
// path without further lookups:
//
//	reg := obs.NewRegistry()
//	sent := reg.Counter("repro_tcp_sent_total", "Messages handed to the transport.", nil)
//	...
//	sent.Inc() // 0 allocs, one atomic add
//
// Existing per-package Stats() structs stay the test-facing surface:
// their packages keep the counters in atomics and the Registry observes
// the very same values through CounterFunc/GaugeFunc views, so nothing
// is ever counted twice.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; Inc/Add are lock- and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that may go up and down. The zero value is ready
// to use; Set/Add are lock- and allocation-free.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are the
// inclusive upper bounds in strictly increasing order; an implicit +Inf
// bucket catches the rest. Observe is lock- and allocation-free.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // per-bucket (non-cumulative); last entry is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

// NewHistogram builds a standalone histogram (Registry.Histogram is the
// registered path). It panics on unsorted or empty bounds.
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly increasing at %d", i))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], +1) {
		panic("obs: +Inf bucket is implicit, do not pass it")
	}
	up := make([]float64, len(buckets))
	copy(up, buckets)
	return &Histogram{upper: up, counts: make([]atomic.Uint64, len(up)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefLatencyBuckets are the default request-latency bounds, in seconds
// (1ms .. 10s), used by the HTTP layer.
var DefLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Labels is one series' constant label set. Label order in the rendered
// output is sorted by key, so identical sets are identical series.
type Labels map[string]string

// Instrument type names, as rendered on # TYPE lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// series is one registered (labels, instrument) pair of a family.
type series struct {
	labels string // rendered sorted label block, "" for none

	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// family is one metric name: its metadata and series.
type family struct {
	name, help, typ string
	series          map[string]*series
	order           []string // insertion-ordered label keys for stable render
}

// Registry collects instruments and renders them as Prometheus text
// exposition format. All methods are safe for concurrent use; the
// instruments themselves are atomic, so rendering concurrently with
// increments observes a live (per-value consistent) snapshot.
type Registry struct {
	mu        sync.Mutex
	fams      map[string]*family
	gatherers []func()
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// OnGather registers a hook run (in registration order) at the start of
// every Render. Subsystems whose counters live behind an execution
// context use it to refresh view instruments just before exposition.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gatherers = append(r.gatherers, fn)
}

// renderLabels renders a sorted, escaped {k="v",...} block ("" when
// empty). It also validates the label names.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !labelRe.MatchString(k) {
			panic(fmt.Sprintf("obs: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// seriesFor resolves (creating as needed) the series of one name+labels
// under a declared type, panicking on any inconsistency — registration
// happens at wiring time, where a mistake is a bug, not a runtime
// condition. attach installs or checks the series' instrument; it runs
// under the registry lock, so a concurrent Render never sees a series
// without its instrument (the HTTP middleware registers lazily, per
// route and status code, while pages are being served).
func (r *Registry) seriesFor(name, help, typ string, labels Labels, attach func(s *series)) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	lbl := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	s, ok := f.series[lbl]
	if !ok {
		s = &series{labels: lbl}
		f.series[lbl] = s
		f.order = append(f.order, lbl)
	}
	attach(s)
}

// Counter registers (or fetches) a counter series. Keep the returned
// pointer; increments through it are allocation-free.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	var c *Counter
	r.seriesFor(name, help, TypeCounter, labels, func(s *series) {
		if s.counterFn != nil {
			panic(fmt.Sprintf("obs: %s%s already registered as a counter view", name, s.labels))
		}
		if s.counter == nil {
			s.counter = &Counter{}
		}
		c = s.counter
	})
	return c
}

// CounterFunc registers a counter view: fn is read at render time. Use
// it to expose an existing atomic counter (a package's Stats field)
// without counting it twice.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.seriesFor(name, help, TypeCounter, labels, func(s *series) {
		if s.counter != nil || s.counterFn != nil {
			panic(fmt.Sprintf("obs: duplicate counter registration %s%s", name, s.labels))
		}
		s.counterFn = fn
	})
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	var g *Gauge
	r.seriesFor(name, help, TypeGauge, labels, func(s *series) {
		if s.gaugeFn != nil {
			panic(fmt.Sprintf("obs: %s%s already registered as a gauge view", name, s.labels))
		}
		if s.gauge == nil {
			s.gauge = &Gauge{}
		}
		g = s.gauge
	})
	return g
}

// GaugeFunc registers a gauge view evaluated at render time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.seriesFor(name, help, TypeGauge, labels, func(s *series) {
		if s.gauge != nil || s.gaugeFn != nil {
			panic(fmt.Sprintf("obs: duplicate gauge registration %s%s", name, s.labels))
		}
		s.gaugeFn = fn
	})
}

// Histogram registers (or fetches) a histogram series with the given
// bucket upper bounds (+Inf implicit). Re-registration must use
// identical bounds.
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) *Histogram {
	var h *Histogram
	r.seriesFor(name, help, TypeHistogram, labels, func(s *series) {
		if s.hist == nil {
			s.hist = NewHistogram(buckets)
		} else if !slices.Equal(s.hist.upper, buckets) {
			panic(fmt.Sprintf("obs: %s re-registered with different buckets", name))
		}
		h = s.hist
	})
	return h
}

// formatValue renders a sample value: integral floats without exponent
// noise, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Render writes the registry in Prometheus text exposition format:
// families sorted by name, each with its HELP/TYPE header and its
// series in registration order. Gather hooks run first.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	hooks := make([]func(), len(r.gatherers))
	copy(hooks, r.gatherers)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	// The series of each family, copied under the lock: registration may
	// go on while the page is written.
	fams := make([]*family, len(names))
	members := make([][]*series, len(names))
	for i, n := range names {
		f := r.fams[n]
		fams[i] = f
		members[i] = make([]*series, len(f.order))
		for j, lbl := range f.order {
			members[i][j] = f.series[lbl]
		}
	}
	r.mu.Unlock()

	for i, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range members[i] {
			if err := renderSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func renderSeries(w io.Writer, f *family, s *series) error {
	switch f.typ {
	case TypeCounter:
		v := uint64(0)
		if s.counter != nil {
			v = s.counter.Value()
		} else if s.counterFn != nil {
			v = s.counterFn()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, strconv.FormatUint(v, 10))
		return err
	case TypeGauge:
		v := 0.0
		if s.gauge != nil {
			v = s.gauge.Value()
		} else if s.gaugeFn != nil {
			v = s.gaugeFn()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(v))
		return err
	case TypeHistogram:
		return renderHistogram(w, f.name, s)
	}
	return fmt.Errorf("obs: unknown family type %q", f.typ)
}

// renderHistogram emits the cumulative _bucket series, then _sum and
// _count. The le label is appended to (or merged into) the series'
// constant labels. _count is the total of the bucket values read for this
// page, not the histogram's own counter: Observe bumps the two separately,
// so a page rendered meanwhile could otherwise show +Inf and _count apart,
// which Parse rejects.
func renderHistogram(w io.Writer, name string, s *series) error {
	h := s.hist
	cum := uint64(0)
	withLE := func(le string) string {
		if s.labels == "" {
			return `{le="` + le + `"}`
		}
		return s.labels[:len(s.labels)-1] + `,le="` + le + `"}`
	}
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(formatValue(ub)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.upper)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, cum)
	return err
}
