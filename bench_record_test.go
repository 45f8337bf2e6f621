package repro

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchRecord is the layout scripts/bench_record.sh writes to
// BENCH_<pr>.json.
type benchRecord struct {
	PR     int    `json:"pr"`
	Commit string `json:"commit"`
	Parent string `json:"parent"`
	Go     string `json:"go"`
	NProc  int    `json:"nproc"`
	Pairs  *struct {
		Workloads string `json:"workloads"`
		Seeds     string `json:"seeds"`
		Seconds   int    `json:"seconds"`
	} `json:"pairs"`
	Metrics []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Side   string   `json:"side"`
		Median *float64 `json:"median"`
		Q1     *float64 `json:"q1"`
		Q3     *float64 `json:"q3"`
		N      int      `json:"n"`
	} `json:"metrics"`
}

var (
	commitRE = regexp.MustCompile(`^[0-9a-f]{40}(\+dirty)?$`)
	parentRE = regexp.MustCompile(`^[0-9a-f]{40}$`)
)

// TestBenchRecordsAreWellFormed checks every checked-in BENCH_*.json
// against the layout bench_record.sh writes: every field present and no
// other, the file named after its PR, and each metric's quartiles in
// order over at least one sample.
func TestBenchRecordsAreWellFormed(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		t.Run(f, func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			var r benchRecord
			if err := dec.Decode(&r); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if dec.More() {
				t.Fatal("trailing data after the record")
			}
			if want := strings.TrimSuffix(strings.TrimPrefix(f, "BENCH_"), ".json"); strconv.Itoa(r.PR) != want {
				t.Errorf("pr %d in a file named %s", r.PR, f)
			}
			if !commitRE.MatchString(r.Commit) {
				t.Errorf("commit %q is not a commit hash (optionally +dirty)", r.Commit)
			}
			if !parentRE.MatchString(r.Parent) {
				t.Errorf("parent %q is not a commit hash", r.Parent)
			}
			if !strings.HasPrefix(r.Go, "go") {
				t.Errorf("go %q is not a Go version", r.Go)
			}
			if r.NProc < 1 {
				t.Errorf("nproc %d", r.NProc)
			}
			if p := r.Pairs; p != nil && (p.Workloads == "" || p.Seeds == "" || p.Seconds < 1) {
				t.Errorf("pairs %+v: workloads, seeds and seconds are required", *p)
			}
			if len(r.Metrics) == 0 {
				t.Fatal("no metrics")
			}
			seen := map[string]bool{}
			for _, m := range r.Metrics {
				key := m.Name + " " + m.Unit + " " + m.Side
				if m.Name == "" || m.Unit == "" {
					t.Errorf("%q: a metric needs a name and a unit", key)
				}
				if m.Side != "commit" && m.Side != "parent" {
					t.Errorf("%q: side %q, want commit or parent", key, m.Side)
				}
				if m.Side == "parent" && r.Pairs == nil {
					t.Errorf("%q: a parent-side metric in a record without pairs", key)
				}
				if seen[key] {
					t.Errorf("%q: listed twice", key)
				}
				seen[key] = true
				if m.Median == nil || m.Q1 == nil || m.Q3 == nil {
					t.Errorf("%q: median, q1 and q3 are required", key)
					continue
				}
				for _, v := range []float64{*m.Median, *m.Q1, *m.Q3} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%q: non-finite %v", key, v)
					}
				}
				if m.N < 1 || *m.Q1 > *m.Median || *m.Median > *m.Q3 {
					t.Errorf("%q: want n ≥ 1 and q1 ≤ median ≤ q3, got n=%d q1=%v median=%v q3=%v", key, m.N, *m.Q1, *m.Median, *m.Q3)
				}
			}
		})
	}
}
