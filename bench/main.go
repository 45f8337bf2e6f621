// Command bench is the repository's benchmark: four workloads (steady,
// pipeline, fault, sim) that measure the service from outside — through
// pkg/client, GET /v1/status, GET /metrics and the packages' public
// constructors — and check their own outputs. See README.md beside it.
//
// The driver form runs one workload and prints one JSON object as the last
// line of standard output:
//
//	bash bench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
//
// Without --workload every workload runs and a report is printed; -aa
// runs the untraced suite twice and compares the two against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runConfig is what every workload gets.
type runConfig struct {
	seed    int64
	measure time.Duration
	traced  bool
	noded   string // the noded binary run.sh built
	scratch string // this run's only directory for data dirs
	outDir  string // where trace files go
	log     io.Writer
}

// workloads is the dispatch table, in report order; the names are the
// workload names of BENCHMARK.json.
var workloads = []struct {
	name string
	run  func(runConfig) (*result, error)
}{
	{"steady", runSteady},
	{"pipeline", runPipeline},
	{"fault", runFault},
	{"sim", runSim},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		root     = flag.String("root", ".", "repository checkout (run.sh passes it)")
		workload = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all, report only)")
		seed     = flag.Int64("seed", 1, "workload seed: shapes keys, values, victim order and the sim sample seeds, nothing else")
		seconds  = flag.Int("seconds", 20, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "1 = the traced pass: per-layer metrics, spans written to bench/out/")
		aa       = flag.Bool("aa", false, "run the untraced suite twice in alternating order and compare against the bounds")
	)
	flag.Parse()
	if *seconds < 1 || flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: [--workload name] [--seed n] [--seconds n>=1] [--trace 0|1] [-aa]")
		return 2
	}
	build := filepath.Join(*root, ".bench_build")
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		noded:   filepath.Join(build, "bin", "noded"),
		outDir:  filepath.Join(*root, "bench", "out"),
		log:     os.Stderr,
	}
	if _, err := os.Stat(cfg.noded); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run through bench/run.sh, which builds it)\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg.scratch = scratch
	children.Lock()
	children.scratch = scratch
	children.Unlock()
	cleanupOnSignal()
	defer cleanup()

	switch {
	case *aa:
		return runAA(cfg)
	case *workload == "":
		return runSuite(cfg)
	}
	for _, w := range workloads {
		if w.name != *workload {
			continue
		}
		res, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printEnv(os.Stdout, captureEnv(cfg))
		res.print(os.Stdout, cfg.traced)
		if err := printJSON(os.Stdout, res, cfg.traced); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.correct() {
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
	return 2
}

// runSuite runs every workload once and prints the report; nonzero when
// any check failed.
func runSuite(cfg runConfig) int {
	env := captureEnv(cfg)
	printEnv(os.Stdout, env)
	code := 0
	for _, w := range workloads {
		res, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.print(os.Stdout, cfg.traced)
		if !res.correct() {
			code = 1
		}
	}
	fmt.Fprintf(os.Stdout, "\nload average (1 min) at end: %s\n", loadAvg())
	return code
}

// runAA is the self-check: the whole untraced suite twice, the second
// time in reverse order, every workload × metric compared against its
// bound. It is the first thing to rerun when the benchmark is called noisy.
func runAA(cfg runConfig) int {
	cfg.traced = false
	printEnv(os.Stdout, captureEnv(cfg))
	passes := [2]map[string]*result{{}, {}}
	code := 0
	for pass := range passes {
		for i := range workloads {
			w := workloads[i]
			if pass == 1 {
				w = workloads[len(workloads)-1-i]
			}
			res, err := w.run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if !res.correct() {
				res.print(os.Stdout, false)
				code = 1
			}
			passes[pass][w.name] = res
		}
	}
	fmt.Printf("\n%-10s %-18s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := passes[0][w.name].e2e[m.Name], passes[1][w.name].e2e[m.Name]
			d := relDiff(a, b)
			verdict := ""
			if d > m.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-10s %-18s %14.4f %14.4f %7.1f%% %7.0f%%%s\n", w.name, m.Name, a, b, d*100, m.Bound*100, verdict)
		}
	}
	fmt.Printf("\nload average (1 min) at end: %s\n", loadAvg())
	return code
}

// printJSON writes the driver's result object as the last line.
func printJSON(w io.Writer, r *result, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	if traced {
		for _, m := range perLayer {
			out.Metrics[m.Name] = value{r.layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = value{r.e2e[m.Name], m.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
