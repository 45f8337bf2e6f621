package main

import (
	"fmt"
	"time"

	_ "repro/internal/experiments" // registers E1–E14 with the engine
	"repro/internal/experiments/engine"
)

// simCells are the deterministic simnet cells of the sim workload, called
// through the engine registry exactly as cmd/benchtab calls them. Counts
// on the simulated clock repeat exactly, so a later protocol change can
// claim "fewer ticks" as a count, and live-path work must leave them alone.
var simCells = []struct {
	metric, id, series string
	n                  int
}{
	{"sim.stabilize_ticks", "E2", "", 8},     // corrupt every node → converged, conflict-free configuration
	{"sim.reconfig_gap_ticks", "E6", "", 5},  // service gap across a delicate reconfiguration
	{"sim.join_ticks", "E7", "", 8},          // joiner → participant
	{"sim.write_ticks_per_op", "E9", "", 4},  // register write latency
	{"sim.ops_per_ktick", "E13", "write", 4}, // static batch 16, window 4
}

// simSeeds are fixed: the workload seed must not move the counts that
// later changes compare exactly.
var simSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// simSamples are the cells behind the sim workload's end-to-end metrics,
// each run on this many seeds derived from --seed. The simulator's clock
// stands for one millisecond per tick (transport.SimTick), so the same
// three things a user of the live service feels come out in simulated
// milliseconds — and, unlike wall time on a shared host, repeat exactly
// for a given seed. The seed counts keep the median's seed-to-seed spread
// near 2 %.
var simSamples = []struct {
	metric string
	cell   int // index into simCells
	seeds  int
}{
	{"goodput_ops_s", 4, 128}, // E13: operations per kilotick = per simulated second
	{"latency_p50_ms", 3, 32}, // E9: ticks per write = simulated ms
	{"max_stall_ms", 1, 16},   // E6: service gap in ticks = simulated ms without service
}

// simCell looks one cell function up in the engine registry.
func simCell(i int) (engine.CellFunc, error) {
	c := simCells[i]
	d, ok := engine.Get(c.id)
	if !ok {
		return nil, fmt.Errorf("experiment %s is not registered", c.id)
	}
	for _, s := range d.Series {
		if s.Key == c.series {
			return s.Run, nil
		}
	}
	return nil, fmt.Errorf("experiment %s has no series %q", c.id, c.series)
}

// simPass runs every cell on every fixed seed once, single-threaded. It
// returns the per-metric mean and what was not valid.
func simPass(tr *tracer) (means map[string]float64, cells int, invalid []string, err error) {
	means = map[string]float64{}
	for i, c := range simCells {
		cell, err := simCell(i)
		if err != nil {
			return nil, 0, nil, err
		}
		sum := 0.0
		for _, seed := range simSeeds {
			t0 := time.Now()
			row := cell(seed, c.n)
			tr.add("sim."+c.id, 0, uint64(seed), -1, t0, time.Now())
			if !row.Valid {
				invalid = append(invalid, fmt.Sprintf("%s seed %d: %s", c.id, seed, row.Note))
			}
			sum += row.Y
			cells++
		}
		means[c.metric] = sum / float64(len(simSeeds))
	}
	return means, cells, invalid, nil
}

// runSim is the sim workload. Set-up is the warm-up pass over the fixed
// seeds; it also yields the exact counts. The measured part first draws the
// seeded samples behind the end-to-end metrics, then repeats the fixed pass
// until the time is used up: the counts must not move, and the median pass
// time is sim_wall_s — a diagnostic, because memory-bound wall time on a
// shared host moves by tens of percent for seconds at a time (a pass takes
// 1.4 s in one stretch and 2.0-2.4 s in the next). Every later pass repeats
// the warm-up's work, so setup_s is the fastest pass of the whole run, not
// the median of the first few: the neighbours only ever add time, and over
// ~25 s some pass runs undisturbed (ten runs: the median of the first three
// passes read 1.39-2.43 s, the fastest pass 1.37-1.53 s).
func runSim(cfg runConfig) (*result, error) {
	res := newResult("sim")
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	note := func(cells int, invalid []string) {
		res.attempted += cells
		res.failed += len(invalid)
		for _, why := range invalid {
			res.fail("cell not valid: %s", why)
		}
	}
	t0 := time.Now()
	first, _, _, err := simPass(nil)
	if err != nil {
		return nil, err
	}
	fastest := time.Since(t0).Seconds()

	start := time.Now()
	for _, sm := range simSamples {
		c := simCells[sm.cell]
		cell, err := simCell(sm.cell)
		if err != nil {
			return nil, err
		}
		var vals []float64
		var invalid []string
		for i := 0; i < sm.seeds; i++ {
			seed := cfg.seed*100_000 + int64(i)
			row := cell(seed, c.n)
			if !row.Valid {
				invalid = append(invalid, fmt.Sprintf("%s seed %d: %s", c.id, seed, row.Note))
			}
			vals = append(vals, row.Y)
		}
		note(sm.seeds, invalid)
		res.e2e[sm.metric] = median(vals)
	}
	var passWall []float64
	for len(passWall) == 0 || time.Since(start) < cfg.measure {
		t0 := time.Now()
		means, cells, invalid, err := simPass(tr)
		if err != nil {
			return nil, err
		}
		passWall = append(passWall, time.Since(t0).Seconds())
		fastest = min(fastest, passWall[len(passWall)-1])
		note(cells, invalid)
		for name, v := range means {
			if v != first[name] {
				res.fail("%s changed between passes of one process: %v then %v", name, first[name], v)
			}
		}
	}
	res.e2e["setup_s"] = fastest
	for _, c := range simCells {
		res.layer[c.metric] = first[c.metric]
	}
	res.layer["sim.wall_s"] = median(passWall)
	res.diag("stabilize_ticks", "ticks", first["sim.stabilize_ticks"])
	res.diag("reconfig_gap_ticks", "ticks", first["sim.reconfig_gap_ticks"])
	res.diag("join_ticks", "ticks", first["sim.join_ticks"])
	res.diag("write_ticks_per_op", "ticks", first["sim.write_ticks_per_op"])
	res.diag("sim_ops_per_ktick", "1/ktick", first["sim.ops_per_ktick"])
	res.diag("sim_wall_s", "s", median(passWall))
	res.diag("passes", "count", float64(len(passWall)))
	if cfg.traced {
		simMicro(res)
		res.layer["trace.spans"] = float64(len(tr.spans))
		if err := writeTrace(cfg, res, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}
