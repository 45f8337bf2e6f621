// Package repro's root benchmarks regenerate experiments E1–E12 of the
// suite E1–E14 (DESIGN.md §6; E13 and E14 have no wrapper here) through the
// engine registry: one testing.B benchmark per experiment, each a thin call
// into the registered cell functions at the headline size. Each iteration
// runs every series of the experiment and reports its mean through
// b.ReportMetric (virtual ticks or event counts — the simulator's
// deterministic clock, not wall time, is the measured value). The full parallel sweep with per-N tables is produced by
// cmd/benchtab; the engine's own speedup benchmark lives in
// internal/experiments/engine.
package repro

import (
	"testing"

	_ "repro/internal/experiments" // registers E1–E14
	"repro/internal/experiments/engine"
	"repro/internal/obs"
)

// benchExperiment runs every series of the registered experiment at size
// n once per iteration and reports the per-series mean as a metric named
// by the series key (or the experiment metric for single-series
// experiments).
func benchExperiment(b *testing.B, id string, n int) {
	d, ok := engine.Get(id)
	if !ok {
		b.Fatalf("%s not registered", id)
	}
	if n < d.MinSize {
		n = d.MinSize
	}
	totals := make([]float64, len(d.Series))
	for i := 0; i < b.N; i++ {
		for si, spec := range d.Series {
			totals[si] += spec.Run(int64(i+1), n).Y
		}
	}
	for si, spec := range d.Series {
		unit := d.Metric
		if spec.Key != "" {
			unit = d.Metric + "-" + spec.Key
		}
		b.ReportMetric(totals[si]/float64(b.N), unit)
	}
}

func BenchmarkE1DelicateReplacement(b *testing.B)   { benchExperiment(b, "E1", 8) }
func BenchmarkE2BruteForceConvergence(b *testing.B) { benchExperiment(b, "E2", 8) }
func BenchmarkE3SpuriousTriggers(b *testing.B)      { benchExperiment(b, "E3", 8) }
func BenchmarkE4LabelCreations(b *testing.B)        { benchExperiment(b, "E4", 8) }
func BenchmarkE5CounterIncrement(b *testing.B)      { benchExperiment(b, "E5", 8) }
func BenchmarkE6VSReconfiguration(b *testing.B)     { benchExperiment(b, "E6", 5) }
func BenchmarkE7JoinLatency(b *testing.B)           { benchExperiment(b, "E7", 8) }
func BenchmarkE8BaselineComparison(b *testing.B)    { benchExperiment(b, "E8", 8) }
func BenchmarkE9SharedMemory(b *testing.B)          { benchExperiment(b, "E9", 8) }
func BenchmarkE10Ablation(b *testing.B)             { benchExperiment(b, "E10", 8) }
func BenchmarkE11ShardScaling(b *testing.B)         { benchExperiment(b, "E11", 4) }
func BenchmarkE12BatchScaling(b *testing.B)         { benchExperiment(b, "E12", 16) }

// BenchmarkObsHotPath guards the observability overhead on the hot
// path (DESIGN.md §13): one counter increment, one labeled-counter
// add and one histogram observation per iteration — the per-operation
// instrument mix on the write path — must run allocation-free. The
// benchmark fails itself if any iteration allocated, so the CI run
// (-benchtime 100x) is a hard 0 allocs/op gate, not just a report.
func BenchmarkObsHotPath(b *testing.B) {
	reg := obs.NewRegistry()
	ops := reg.Counter("bench_ops_total", "Ops.", nil)
	shardOps := reg.Counter("bench_shard_ops_total", "Sharded ops.", obs.Labels{"shard": "0"})
	lat := reg.Histogram("bench_latency_seconds", "Latency.", nil, obs.DefLatencyBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops.Inc()
		shardOps.Add(3)
		lat.Observe(0.004)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() {
		ops.Inc()
		shardOps.Add(3)
		lat.Observe(0.004)
	}); allocs != 0 {
		b.Fatalf("hot-path instruments allocated %.1f allocs/op, want 0", allocs)
	}
}
