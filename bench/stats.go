package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of vals by linear
// interpolation between closest ranks. It sorts a copy; 0 for no samples.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// maxGap is the longest stretch of [from, to) without a successful
// completion: okAt must be ascending; completions outside the interval
// are ignored, and both edges count (no completion at all gives to-from).
func maxGap(okAt []time.Time, from, to time.Time) time.Duration {
	var longest time.Duration
	prev := from
	for _, t := range okAt {
		if t.Before(from) {
			continue
		}
		if !t.Before(to) {
			break
		}
		if g := t.Sub(prev); g > longest {
			longest = g
		}
		prev = t
	}
	if g := to.Sub(prev); g > longest {
		longest = g
	}
	return longest
}

// sample is one successful operation: how long its caller waited and when
// it completed.
type sample struct {
	latMS  float64
	doneAt time.Time
}

// windowWorst cuts [from, to) into whole windows of the given width and
// returns the longest wait among the operations completing in each
// (windows with none are skipped). The median of these is the closed-loop
// workloads' max_stall_ms: a tail measure built from many windows instead
// of one worst sample.
func windowWorst(ops []sample, from, to time.Time, width time.Duration) []float64 {
	n := int(to.Sub(from) / width)
	worst := make([]float64, n)
	for _, op := range ops {
		if i := int(op.doneAt.Sub(from) / width); !op.doneAt.Before(from) && i < n && op.latMS > worst[i] {
			worst[i] = op.latMS
		}
	}
	out := worst[:0]
	for _, w := range worst {
		if w > 0 {
			out = append(out, w)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// relDiff is |a-b| as a share of their mean (0 when both are 0).
func relDiff(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
