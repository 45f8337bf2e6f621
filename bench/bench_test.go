package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if percentile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("empty or single-sample percentile is wrong")
	}
}

func TestMaxGapAndWindows(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ok := []time.Time{at(-5), at(10), at(20), at(300), at(310), at(990), at(1500)}
	// Inside [0, 1000): edges 0→10, …, 20→300 (280), 310→990 (680), 990→1000.
	if got := maxGap(ok, at(0), at(1000)); got != 680*time.Millisecond {
		t.Errorf("maxGap = %v, want 680ms", got)
	}
	// No completion inside the interval: the whole interval is the gap.
	if got := maxGap(ok, at(400), at(900)); got != 500*time.Millisecond {
		t.Errorf("maxGap over an empty interval = %v, want 500ms", got)
	}
	// The trailing edge counts.
	if got := maxGap(ok, at(0), at(250)); got != 230*time.Millisecond {
		t.Errorf("maxGap with a long trailing edge = %v, want 230ms", got)
	}
	ops := []sample{{5, at(-1)}, {7, at(100)}, {9, at(499)}, {3, at(500)}, {8, at(1600)}}
	got := windowWorst(ops, at(0), at(1700), 500*time.Millisecond)
	want := []float64{9, 3} // window 3 is empty, the partial fourth is dropped
	if len(got) != len(want) {
		t.Fatalf("windowWorst = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d worst = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "child", Parent: 0, Start: 10, End: 40},
		{Name: "child", Parent: 0, Start: 30, End: 60},  // overlaps the first: counted once
		{Name: "child", Parent: 0, Start: 90, End: 130}, // clipped to the parent's end
		{Name: "grandchild", Parent: 1, Start: 15, End: 20},
	}
	st := selfTimes(spans)
	if got := st["op"].self; got != 40 { // 100 − (10..60 = 50) − (90..100 = 10)
		t.Errorf("op self time = %d, want 40", got)
	}
	if got := st["child"]; got.count != 3 || got.total != 100 || got.self != 95 {
		t.Errorf("child = %+v, want count 3 total 100 self 95", got)
	}
	if got := meanUS(map[string]spanStat{"x": {count: 4, total: 8 * time.Microsecond}}, "x"); got != 2 {
		t.Errorf("meanUS = %v, want 2", got)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", 1, 1, -1))
	if tr.add("x", 1, 1, -1, time.Now(), time.Now()) != -1 {
		t.Error("nil tracer recorded a span")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and what the command
// prints in step: same names, units, directions and bounds, in order.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(doc.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), command has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the command", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the command has %+v", kind, i, got[i], want[i])
			}
			m := want[i]
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] ||
				(m.Better != "lower" && m.Better != "higher") || m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("%s %d: %+v breaks the naming rules", kind, i, m)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
}

// TestPrintJSON checks the driver's line carries exactly the four keys and
// every metric of the pass it belongs to.
func TestPrintJSON(t *testing.T) {
	r := newResult("steady")
	r.attempted = 10
	for _, m := range endToEnd {
		r.e2e[m.Name] = 1.5
	}
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		if err := printJSON(&buf, r, traced); err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
			t.Errorf("result keys: %v", line)
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics printed, want %d", traced, len(metrics), len(want))
		}
		for _, m := range want {
			if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s printed as %+v", traced, m.Name, got)
			}
		}
	}
}

// TestPipelineSmoke runs the embedded stack for a second with the span
// decorators on: operations complete, every check passes, no view moves,
// and the decorators recorded each kind of span.
func TestPipelineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binds loopback ports and runs for 2 s")
	}
	tr := newTracer()
	opts := pipelineOpts
	opts.tr = tr
	run, err := runPipelineOnce(opts, loadOpts{depth: 16, measure: time.Second, readEvery: 5, poll: 500 * time.Microsecond, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := newResult("pipeline")
	res.fromLoads([]loadResult{run.load})
	if !res.correct() || run.moved {
		t.Fatalf("smoke failed: problems %v, view moved %v", res.problems, run.moved)
	}
	if res.e2e["goodput_ops_s"] < 100 || res.e2e["latency_p50_ms"] <= 0 || res.e2e["max_stall_ms"] <= 0 {
		t.Errorf("implausible metrics: %v", res.e2e)
	}
	if run.counter.rounds == 0 || run.counter.frames == 0 || run.counter.views != 0 {
		t.Errorf("counters: %+v", run.counter)
	}
	stats := selfTimes(tr.spans)
	for _, name := range []string{"core.tick", "core.receive", "tcp.send", "regmem.submit", "commit.wait"} {
		if stats[name].count == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	if run.sample.App == nil {
		t.Error("no envelope captured for the wire micro loops")
	}
}
