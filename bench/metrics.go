package main

import (
	"fmt"
	"io"
)

// metricSpec mirrors one entry of BENCHMARK.json; the test keeps the two
// in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the service sees. Every workload reports
// every one of them, each measured natively; README.md says what each
// name means on each workload.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "goodput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "max_stall_ms", Unit: "ms", Better: "lower", Bound: 0.15},
}

// result is what one workload run produced.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string           // failed correctness checks
	e2e       map[string]float64 // the end-to-end metrics, by contract name
	layer     map[string]float64 // the per-layer metrics (traced pass)
	diags     []diagnostic       // printed, never gated
}

// diagnostic is a named number the report prints beside the gated
// metrics: the role split, tails, sample counts.
type diagnostic struct {
	name, unit string
	value      float64
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) fail(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *result) diag(name, unit string, v float64) {
	r.diags = append(r.diags, diagnostic{name, unit, v})
}

// correct reports whether every output check passed. A failed operation
// is counted, not called a wrong output; workloads on which none may fail
// add a check of their own.
func (r *result) correct() bool { return len(r.problems) == 0 }

// print writes the human-readable block for one workload.
func (r *result) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "\n== %s ==  attempted %d, failed %d, checks %s\n", r.workload, r.attempted, r.failed, passWord(r.correct()))
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	if !traced {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "  %-28s %14.4f %-6s (%s is better, bound %.0f%%)\n", m.Name, r.e2e[m.Name], m.Unit, m.Better, m.Bound*100)
		}
	} else {
		for _, m := range perLayer {
			if v := r.layer[m.Name]; v != 0 {
				fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	for _, d := range r.diags {
		fmt.Fprintf(w, "  - %-26s %14.4f %-6s (diagnostic)\n", d.name, d.value, d.unit)
	}
}

func passWord(ok bool) string {
	if ok {
		return "passed"
	}
	return "FAILED"
}
