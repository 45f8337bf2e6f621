package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans of one operation share Op (0 marks
// work no single operation owns, such as a node tick); Parent is the index
// in the file of the span that caused this one, -1 for a root. Start and
// End are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Op     uint64 `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is
// the untraced pass: every method is a no-op, so call sites need no guard.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name string, node int, op uint64, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Node: node, Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a finished interval.
func (t *tracer) add(name string, node int, op uint64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Node: node, Op: op, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// write stores the spans as one JSON array under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count       int
	total, self time.Duration
}

// selfTimes returns, per span name, the count, the summed duration and
// the summed self time: a span's duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) map[string]spanStat {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]spanStat)
	for i, s := range spans {
		st := out[s.Name]
		st.count++
		dur := s.End - s.Start
		st.total += time.Duration(dur)
		st.self += time.Duration(dur - covered(children[i], s.Start, s.End))
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	at := lo
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// meanUS is the mean duration of the named spans in microseconds.
func meanUS(stats map[string]spanStat, name string) float64 {
	st := stats[name]
	if st.count == 0 {
		return 0
	}
	return us(st.total) / float64(st.count)
}
