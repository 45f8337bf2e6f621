package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRenderParseRoundTrip renders a registry with every instrument
// kind and strict-parses it back: same families, types, help and
// values.
func TestRenderParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_test_ops_total", "Operations done.", Labels{"shard": "0"})
	c.Add(42)
	c2 := r.Counter("repro_test_ops_total", "Operations done.", Labels{"shard": "1"})
	c2.Add(7)
	r.CounterFunc("repro_test_view_total", "A counter view.", nil, func() uint64 { return 9 })
	g := r.Gauge("repro_test_depth", "Queue depth.", nil)
	g.Set(3.5)
	h := r.Histogram("repro_test_latency_seconds", "Latency.", Labels{"route": "put"}, []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	fams, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse of rendered output: %v\n%s", err, buf.String())
	}
	if len(fams) != 4 {
		t.Fatalf("got %d families, want 4:\n%s", len(fams), buf.String())
	}

	ops := fams["repro_test_ops_total"]
	if ops == nil || ops.Type != TypeCounter || ops.Help != "Operations done." {
		t.Fatalf("ops family wrong: %+v", ops)
	}
	if got := SumFamily(ops); got != 49 {
		t.Fatalf("ops sum = %v, want 49", got)
	}
	byShard := map[string]float64{}
	for _, s := range ops.Samples {
		byShard[s.Labels["shard"]] = s.Value
	}
	if byShard["0"] != 42 || byShard["1"] != 7 {
		t.Fatalf("per-shard values wrong: %v", byShard)
	}

	if v := fams["repro_test_view_total"]; v == nil || SumFamily(v) != 9 {
		t.Fatalf("counter view wrong: %+v", v)
	}
	depth := fams["repro_test_depth"]
	if depth == nil || depth.Type != TypeGauge || depth.Samples[0].Value != 3.5 {
		t.Fatalf("gauge wrong: %+v", depth)
	}

	lat := fams["repro_test_latency_seconds"]
	if lat == nil || lat.Type != TypeHistogram {
		t.Fatalf("histogram family wrong: %+v", lat)
	}
	if got := SumFamily(lat); got != 3 {
		t.Fatalf("histogram count sum = %v, want 3", got)
	}
	var sum float64
	buckets := map[string]float64{}
	for _, s := range lat.Samples {
		switch s.Name {
		case "repro_test_latency_seconds_sum":
			sum = s.Value
		case "repro_test_latency_seconds_bucket":
			buckets[s.Labels["le"]] = s.Value
		}
	}
	if math.Abs(sum-5.055) > 1e-9 {
		t.Fatalf("histogram sum = %v, want 5.055", sum)
	}
	want := map[string]float64{"0.01": 1, "0.1": 2, "1": 2, "+Inf": 3}
	for le, v := range want {
		if buckets[le] != v {
			t.Fatalf("bucket le=%s = %v, want %v (all: %v)", le, buckets[le], v, buckets)
		}
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound
// semantics: a value exactly on a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 4.5, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 2} // (<=1)=2: {0.5,1}; (<=2)=2: {1.0000001,2}; (<=4)=1: {4}; +Inf=2: {4.5,100}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
}

// TestConcurrentIncrements hammers every instrument kind from many
// goroutines (run under -race) and checks the totals are exact.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_test_c_total", "", nil)
	g := r.Gauge("repro_test_g", "", nil)
	h := r.Histogram("repro_test_h", "", nil, []float64{1, 2})

	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(1.5)
			}
		}()
	}
	// Render concurrently with the increments, until they are done: no
	// page may race, fail, or fail the strict parser — a histogram caught
	// between Observe's two counters must still show +Inf equal to _count.
	observing := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for pages := 0; ; pages++ {
			var buf bytes.Buffer
			if err := r.Render(&buf); err != nil {
				t.Errorf("concurrent render: %v", err)
				return
			}
			if _, err := Parse(&buf); err != nil {
				t.Errorf("page %d rendered during Observe does not parse: %v", pages, err)
				return
			}
			select {
			case <-observing:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(observing)
	<-done

	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if want := 1.5 * workers * per; math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

// TestRegistryIdempotentAndConflicts pins the wiring-time contract:
// same (name, labels, type) returns the same instrument; a type
// conflict panics.
func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("repro_test_x_total", "", Labels{"k": "v"})
	b := r.Counter("repro_test_x_total", "", Labels{"k": "v"})
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("type conflict did not panic")
			}
		}()
		r.Gauge("repro_test_x_total", "", Labels{"k": "v"})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("bad metric name did not panic")
			}
		}()
		r.Counter("bad name", "", nil)
	}()
}

// TestLabelEscaping round-trips label values with quotes, backslashes
// and newlines through render + parse.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	nasty := `he said "hi"` + "\n" + `then \left`
	r.Counter("repro_test_esc_total", "with \"quotes\" and\nnewline", Labels{"v": nasty}).Inc()
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	fams, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	f := fams["repro_test_esc_total"]
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("family missing: %+v", f)
	}
	if got := f.Samples[0].Labels["v"]; got != nasty {
		t.Fatalf("label value round-trip: got %q want %q", got, nasty)
	}
	if f.Help != "with \"quotes\" and\nnewline" {
		t.Fatalf("help round-trip: got %q", f.Help)
	}
}

// TestParseRejects pins the strict-mode rejections CI relies on.
func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":  "repro_x_total 1\n",
		"duplicate series":    "# TYPE repro_x_total counter\nrepro_x_total 1\nrepro_x_total 2\n",
		"foreign sample":      "# TYPE repro_x_total counter\nrepro_y_total 1\n",
		"bad value":           "# TYPE repro_x_total counter\nrepro_x_total one\n",
		"unterminated labels": "# TYPE repro_x_total counter\nrepro_x_total{k=\"v 1\n",
		"duplicate TYPE":      "# TYPE repro_x_total counter\n# TYPE repro_x_total counter\n",
		"HELP after TYPE":     "# TYPE repro_x_total counter\n# HELP repro_x_total late\n",
		"bucket without le":   "# TYPE repro_h histogram\nrepro_h_bucket 1\n",
		"histogram no +Inf": "# TYPE repro_h histogram\n" +
			"repro_h_bucket{le=\"1\"} 1\nrepro_h_sum 1\nrepro_h_count 1\n",
		"histogram not cumulative": "# TYPE repro_h histogram\n" +
			"repro_h_bucket{le=\"1\"} 5\nrepro_h_bucket{le=\"+Inf\"} 3\nrepro_h_sum 1\nrepro_h_count 3\n",
		"histogram count mismatch": "# TYPE repro_h histogram\n" +
			"repro_h_bucket{le=\"1\"} 1\nrepro_h_bucket{le=\"+Inf\"} 3\nrepro_h_sum 1\nrepro_h_count 4\n",
	}
	for name, text := range cases {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: strict parse accepted:\n%s", name, text)
		}
	}
}

// TestOnGather checks gather hooks run before values are read.
func TestOnGather(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("repro_test_refresh", "", nil)
	n := 0
	r.OnGather(func() { n++; g.Set(float64(n)) })
	var buf bytes.Buffer
	for i := 1; i <= 3; i++ {
		buf.Reset()
		if err := r.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "repro_test_refresh "+string(rune('0'+i))) {
			t.Fatalf("render %d did not see refreshed gauge:\n%s", i, buf.String())
		}
	}
}

// TestHotPathAllocs asserts the increment fast paths allocate nothing;
// BenchmarkObsHotPath guards the same property under -benchmem.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_test_alloc_total", "", nil)
	g := r.Gauge("repro_test_alloc_gauge", "", nil)
	h := r.Histogram("repro_test_alloc_seconds", "", nil, DefLatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
}

// BenchmarkObsHotPath guards the observability overhead on the hot
// path (DESIGN.md §13): one counter increment, one labeled-counter
// add and one histogram observation per iteration — the per-operation
// instrument mix on the write path — must run allocation-free. The
// benchmark fails itself if any iteration allocated, so the CI run
// (-benchtime 100x) is a hard 0 allocs/op gate, not just a report.
func BenchmarkObsHotPath(b *testing.B) {
	reg := NewRegistry()
	ops := reg.Counter("bench_ops_total", "Ops.", nil)
	shardOps := reg.Counter("bench_shard_ops_total", "Sharded ops.", Labels{"shard": "0"})
	lat := reg.Histogram("bench_latency_seconds", "Latency.", nil, DefLatencyBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops.Inc()
		shardOps.Add(3)
		lat.Observe(0.004)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() {
		ops.Inc()
		shardOps.Add(3)
		lat.Observe(0.004)
	}); allocs != 0 {
		b.Fatalf("hot-path instruments allocated %.1f allocs/op, want 0", allocs)
	}
}
