package main

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// pipelineOpts is the deep-queue configuration: the only workload on
// which smr batching, the datalink window, the binary batch codec, tcp
// write coalescing and the shard demux carry load. Storage and HTTP do
// nothing here, so a storage or daemon change must leave it flat.
var pipelineOpts = embedOpts{shards: 4, batch: 16, window: 4}

const (
	pipelineDepth  = 64
	pipelineWarmup = time.Second
	// stallWindow is the width of max_stall_ms's windows here: a little
	// longer than one operation takes, ~300 completions each, ~790 windows
	// a run. With steady's 250 ms (~3 000 completions, 78 windows) the
	// worst wait of a window is a p99.97 and the median over windows spread
	// 4-9 % over ten runs of the same code on a quiet machine, 15-17 % on
	// the driver's; at 100 / 50 / 25 ms the same runs spread 3.2 / 1.8 / 1 %.
	stallWindow = 25 * time.Millisecond
)

// pipelineLoad is the pipeline workload's load: depth 64 per node, every
// fifth operation a sync-read, completions collected every 500 µs.
func pipelineLoad(measure time.Duration, seed int64) loadOpts {
	return loadOpts{depth: pipelineDepth, measure: measure, readEvery: 5, poll: 500 * time.Microsecond, seed: seed}
}

// pipelineRun is one measured pass over a fresh embedded cluster.
type pipelineRun struct {
	load    loadResult
	setup   time.Duration
	moved   bool // a view was installed or a coordinator changed mid-run
	counter counterDelta
	sample  core.Envelope // a traced run's captured envelope, for the wire micro loops
}

// runPipelineOnce builds a fresh embedded cluster, warms it up, measures
// for the given time and takes the cluster down again.
func runPipelineOnce(o embedOpts, lo loadOpts) (*pipelineRun, error) {
	t0 := time.Now()
	e, err := newEmbedded(o)
	if err != nil {
		return nil, err
	}
	defer e.close()
	before, err := e.waitViews(20 * time.Second)
	if err != nil {
		return nil, err
	}
	r := &pipelineRun{}
	lo.warmup, lo.tr = pipelineWarmup, o.tr
	// Set-up ends where measurement starts: constructors, first views and
	// the fixed warm-up traffic.
	r.setup = time.Since(t0) + pipelineWarmup
	var c0 counterDelta
	lo.atStart = func() { c0 = e.counters() }
	lo.atEnd = func() { r.counter = e.counters().minus(c0) }
	r.load = e.drive(lo, before)
	after, err := e.waitViews(5 * time.Second)
	r.moved = err != nil || !sameViews(before, after)
	e.close() // the nodes have stopped: their captured envelope is safe to read
	r.sample = e.nodes[0].sample
	return r, nil
}

// pipelineClusters is how many fresh embedded clusters share a run's
// measured time; as on steady, the median over several takes the
// boot-to-boot difference out of the numbers.
const pipelineClusters = 3

// runPipeline is the pipeline workload.
func runPipeline(cfg runConfig) (*result, error) {
	res := newResult("pipeline")
	if cfg.traced {
		return res, pipelineLayers(cfg, res)
	}
	var setups []float64
	var loads []loadResult
	for boots := 0; len(loads) < pipelineClusters; boots++ {
		if boots == 2*pipelineClusters {
			res.fail("views kept moving: %d of %d clusters had to be discarded", boots-len(loads), boots)
			break
		}
		r, err := runPipelineOnce(pipelineOpts, pipelineLoad(cfg.measure/pipelineClusters, cfg.seed))
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
		if r.moved {
			// Rule 1: a run in which a view moved is discarded, not averaged in.
			fmt.Fprintln(cfg.log, "pipeline: a view moved during the run; discarding this cluster's numbers and building another")
			continue
		}
		loads = append(loads, r.load)
	}
	res.fromLoads(loads)
	res.e2e["setup_s"] = median(setups)
	return res, nil
}

// fromLoads turns the embedded load results of a run's clusters into the
// workload's metrics: the median over clusters of each cluster's number.
func (r *result) fromLoads(loads []loadResult) {
	var goodput, follower, coord, reads, all, worst []float64
	for _, l := range loads {
		r.attempted += len(l.ops) + l.failed
		r.failed += l.failed
		for _, p := range l.problems {
			r.fail("%s", p)
		}
		if len(l.ops) == 0 {
			r.fail("no operation completed in the measured window")
			continue
		}
		var f, c, rd []float64
		ops := make([]sample, 0, len(l.ops))
		for _, op := range l.ops {
			all = append(all, op.latMS)
			ops = append(ops, sample{op.latMS, op.doneAt})
			switch {
			case op.read:
				rd = append(rd, op.latMS)
			case op.coord:
				c = append(c, op.latMS)
			default:
				f = append(f, op.latMS)
			}
		}
		goodput = append(goodput, float64(len(l.ops))/l.to.Sub(l.from).Seconds())
		// Follower writes, as on steady: pooling them with the coordinator's
		// faster ones would put the median between two modes.
		follower = append(follower, median(f))
		coord = append(coord, median(c))
		reads = append(reads, median(rd))
		worst = append(worst, windowWorst(ops, l.from, l.to, stallWindow)...)
	}
	if len(goodput) == 0 {
		return
	}
	r.e2e["goodput_ops_s"] = median(goodput)
	r.e2e["latency_p50_ms"] = median(follower)
	r.e2e["max_stall_ms"] = median(worst)
	r.diag("op_p50_ms", "ms", median(all))
	r.diag("op_p95_ms", "ms", percentile(all, 0.95))
	r.diag("op_p99_ms", "ms", percentile(all, 0.99))
	r.diag("write_coord_p50_ms", "ms", median(coord))
	r.diag("sread_p50_ms", "ms", median(reads))
	r.diag("samples", "count", float64(len(all)))
	r.diag("clusters", "count", float64(len(goodput)))
}
