// Package engine is the registry-driven, parallel experiment engine
// behind cmd/benchtab and the root benchmark suite (DESIGN.md §6).
//
// Each paper experiment (E1–E14, EXPERIMENTS.md) registers a Descriptor:
// an identifier, the measured metric, the default size sweep, and one or
// more series whose Run function executes a single (size, seed) cell and
// returns one measurement row. The runner expands the requested
// (experiment × series × size × repeat) grid into independent cells, fans
// them out over a bounded worker pool, and aggregates repeats into
// mean/std summaries. Because every cell derives its own seed from the
// base seed and its coordinates — never from scheduling order — results
// are bit-identical regardless of the worker count.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/workload"
)

// CellFunc runs one experiment cell: a single simulation at size n, fully
// determined by seed. It must be safe to call concurrently with other
// cells (no shared mutable state between calls).
type CellFunc func(seed int64, n int) workload.Row

// SeriesSpec is one output series of an experiment. Most experiments have
// a single series (Key ""); comparative experiments such as E4, E8 and
// E10 register one spec per arm.
type SeriesSpec struct {
	// Key distinguishes the arms of a multi-series experiment
	// ("arbitrary", "baseline", "gap1", …). Empty for single-series
	// experiments.
	Key string
	// Name is the human-readable series title used in tables.
	Name string
	// Run executes one cell of this series.
	Run CellFunc
	// ExpectInvalid marks series whose rows are expected NOT to
	// validate (e.g. E8's coherent-start baseline never recovers, so
	// every row reports the deadline with Valid=false).
	ExpectInvalid bool
}

// Descriptor describes one registered experiment.
type Descriptor struct {
	// ID is the experiment identifier, "E1" … "E10".
	ID string
	// Title is a short human-readable description.
	Title string
	// Metric names the measured quantity ("vticks", "count", …).
	Metric string
	// DefaultSizes is the N sweep used when the caller does not
	// override sizes.
	DefaultSizes []int
	// MinSize, when positive, is the smallest meaningful N; the runner
	// raises smaller requested sizes to it (e.g. E6 needs ≥5 so a
	// non-coordinator can crash while a majority survives).
	MinSize int
	// Series holds the experiment's output series, at least one.
	Series []SeriesSpec
}

var (
	regMu    sync.RWMutex
	registry = map[string]Descriptor{}
)

// Register adds an experiment descriptor to the global registry.
func Register(d Descriptor) error {
	if d.ID == "" {
		return fmt.Errorf("engine: descriptor without ID")
	}
	if len(d.Series) == 0 {
		return fmt.Errorf("engine: %s has no series", d.ID)
	}
	seen := map[string]bool{}
	for _, s := range d.Series {
		if s.Run == nil {
			return fmt.Errorf("engine: %s series %q has no Run", d.ID, s.Key)
		}
		if seen[s.Key] {
			return fmt.Errorf("engine: %s has duplicate series key %q", d.ID, s.Key)
		}
		seen[s.Key] = true
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[d.ID]; dup {
		return fmt.Errorf("engine: %s registered twice", d.ID)
	}
	registry[d.ID] = d
	return nil
}

// MustRegister is Register, panicking on error. Intended for package
// init-time registration.
func MustRegister(d Descriptor) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// Get looks up a registered experiment by ID.
func Get(id string) (Descriptor, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := registry[id]
	return d, ok
}

// All returns every registered descriptor in natural order (E1 … E10:
// shorter IDs first, then lexicographic, so E2 sorts before E10).
func All() []Descriptor {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Descriptor, 0, len(registry))
	for _, d := range registry {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}
