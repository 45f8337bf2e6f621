// Command benchtab regenerates the experiment tables (E1–E14, DESIGN.md
// §6) through the parallel engine and emits them in the format recorded
// in EXPERIMENTS.md, as CSV, or as JSON.
//
// Usage:
//
//	benchtab [-seed N] [-sizes 4,8,16,24] [-only E2,E8]
//	         [-repeats R] [-parallel W] [-format table|csv|json] [-out DIR]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// The (experiment × size × repeat) grid is fanned out over W workers
// (default: all CPUs); every cell derives its own seed from -seed and its
// grid coordinates, so the output is byte-identical for any -parallel
// value. With -out DIR the results are written to files in DIR
// (cells.csv + summary.csv, results.json, or results.txt depending on
// -format) instead of stdout. -cpuprofile and -memprofile write pprof
// profiles of the grid run (the allocation profile counts every object,
// not a sample), so a cell can be profiled without a scratch main:
//
//	benchtab -only E13 -sizes 4 -repeats 8 -parallel 1 -cpuprofile cpu.pb.gz
//	go tool pprof -top cpu.pb.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	_ "repro/internal/experiments" // registers E1–E14
	"repro/internal/experiments/engine"
)

func main() {
	seed := flag.Int64("seed", 42, "base random seed")
	sizesFlag := flag.String("sizes", "", "comma-separated N sweep (empty = per-experiment defaults)")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E2,E8); empty = all")
	repeats := flag.Int("repeats", 1, "repeats per (experiment, size) cell")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker pool size (results do not depend on it)")
	format := flag.String("format", "table", "output format: table, csv or json")
	outDir := flag.String("out", "", "write results to files in DIR instead of stdout")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the grid run to FILE")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the grid run (every object counted) to FILE")
	flag.Parse()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fatal(err)
	}
	if err := engine.CheckFormat(*format); err != nil {
		fatal(err)
	}
	var rep *engine.Report
	err = profiled(*cpuProfile, *memProfile, func() error {
		rep, err = engine.Run(engine.Config{
			Seed:    *seed,
			Sizes:   sizes,
			Repeats: *repeats,
			Workers: *parallel,
			Only:    parseOnly(*only),
		})
		return err
	})
	if err != nil {
		fatal(err)
	}
	if err := engine.Emit(rep, *format, *outDir); err != nil {
		fatal(err)
	}
}

// profiled runs fn under the requested pprof profiles: a CPU profile of
// fn alone, and the allocations made up to its return with every object
// counted (the default 512 KiB sampling hides the small objects a
// protocol step is made of). Empty paths request nothing.
func profiled(cpuPath, memPath string, fn func() error) error {
	if memPath != "" {
		runtime.MemProfileRate = 1
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath == "" {
		return nil
	}
	f, err := os.Create(memPath)
	if err != nil {
		return err
	}
	runtime.GC() // flush the allocations since the last cycle into the profile
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}

// parseSizes parses a comma-separated N sweep. Sizes must be ≥1 (1 is
// meaningful for E11/E12, whose N is a shard count / batch bound;
// cluster-size experiments clamp to their descriptor's MinSize);
// duplicates are dropped (preserving order). An empty string yields
// nil, meaning per-experiment defaults.
func parseSizes(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	seen := map[int]bool{}
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad size %q", p)
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out, nil
}

// parseOnly parses the -only experiment filter: nil for "all", otherwise
// a set of upper-cased ids.
func parseOnly(s string) map[string]bool {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	out := map[string]bool{}
	for _, p := range strings.Split(s, ",") {
		out[strings.ToUpper(strings.TrimSpace(p))] = true
	}
	return out
}
