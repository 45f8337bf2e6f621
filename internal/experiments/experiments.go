// Package experiments implements the paper-reproduction experiment suite
// E1–E14 defined in DESIGN.md §6. The paper (a proofs paper) publishes no
// empirical tables; E1–E10 each operationalize one of its theorems or
// explicit asymptotic claims, E11 measures the sharded register
// namespace's scaling (DESIGN.md §9), E12 the hot-path batching
// (DESIGN.md §11), E13 the pipelining/codec frontier
// (DESIGN.md §14), and E14 churn recovery — the deterministic twin of
// the live chaos harness (DESIGN.md §16) — producing the series
// recorded in EXPERIMENTS.md.
//
// The per-cell simulations live in cells.go; this file registers them
// with the engine registry (internal/experiments/engine), which
// bench_test.go and cmd/benchtab drive. The exported EN functions are
// kept as thin sequential wrappers over the registry for tests and
// direct callers.
package experiments

import (
	"fmt"

	"repro/internal/experiments/engine"
	"repro/internal/workload"
)

// Sizes is the default N sweep.
var Sizes = []int{4, 8, 16, 24}

func init() {
	engine.MustRegister(engine.Descriptor{
		ID: "E1", Title: "delicate replacement latency", Metric: "vticks",
		DefaultSizes: Sizes, MinSize: 2,
		Series: []engine.SeriesSpec{
			{Name: "E1 delicate replacement (ticks)", Run: e1Cell},
		},
	})
	engine.MustRegister(engine.Descriptor{
		ID: "E2", Title: "brute-force recovery", Metric: "vticks",
		DefaultSizes: Sizes, MinSize: 2,
		Series: []engine.SeriesSpec{
			{Name: "E2 brute-force recovery (ticks)", Run: e2Cell},
		},
	})
	engine.MustRegister(engine.Descriptor{
		ID: "E3", Title: "spurious recMA triggers", Metric: "count",
		DefaultSizes: Sizes, MinSize: 2,
		Series: []engine.SeriesSpec{
			{Name: "E3 spurious recMA triggers (count)", Run: e3Cell},
		},
	})
	engine.MustRegister(engine.Descriptor{
		ID: "E4", Title: "label creations", Metric: "creations",
		DefaultSizes: Sizes, MinSize: 2,
		Series: []engine.SeriesSpec{
			{Key: "arbitrary", Name: "E4 label creations (arbitrary start)", Run: e4ArbitraryCell},
			{Key: "postreco", Name: "E4 label creations (post-rebuild)", Run: e4PostRebuildCell},
		},
	})
	engine.MustRegister(engine.Descriptor{
		ID: "E5", Title: "counter increment latency", Metric: "vticks/op",
		DefaultSizes: Sizes, MinSize: 2,
		Series: []engine.SeriesSpec{
			{Name: "E5 counter increment latency (ticks/op)", Run: e5Cell},
		},
	})
	engine.MustRegister(engine.Descriptor{
		ID: "E6", Title: "VS reconfiguration service gap", Metric: "vticks",
		DefaultSizes: Sizes, MinSize: 5,
		Series: []engine.SeriesSpec{
			{Name: "E6 VS reconfig service gap (ticks)", Run: e6Cell},
		},
	})
	engine.MustRegister(engine.Descriptor{
		ID: "E7", Title: "join latency", Metric: "vticks",
		DefaultSizes: Sizes, MinSize: 2,
		Series: []engine.SeriesSpec{
			{Name: "E7 join latency (ticks)", Run: e7Cell},
		},
	})
	engine.MustRegister(engine.Descriptor{
		ID: "E8", Title: "recovery vs coherent-start baseline", Metric: "vticks",
		DefaultSizes: Sizes, MinSize: 2,
		Series: []engine.SeriesSpec{
			{Key: "selfstab", Name: "E8 recovery: self-stabilizing (ticks)", Run: e8SelfStabCell},
			{Key: "baseline", Name: "E8 recovery: baseline (ticks; deadline = never)",
				Run: e8BaselineCell, ExpectInvalid: true},
		},
	})
	engine.MustRegister(engine.Descriptor{
		ID: "E9", Title: "register write latency", Metric: "vticks/op",
		DefaultSizes: Sizes, MinSize: 2,
		Series: []engine.SeriesSpec{
			{Name: "E9 register write latency (ticks/op)", Run: e9Cell},
		},
	})
	engine.MustRegister(engine.Descriptor{
		ID: "E10", Title: "degree-gap ablation", Metric: "vticks",
		DefaultSizes: Sizes, MinSize: 2,
		Series: []engine.SeriesSpec{
			{Key: "gap1", Name: "E10 delicate replacement, degree gap 1", Run: e10Cell(1)},
			{Key: "gap2", Name: "E10 delicate replacement, degree gap 2", Run: e10Cell(2)},
		},
	})
	engine.MustRegister(engine.Descriptor{
		// E11 sweeps the SHARD count (the cluster stays 3 nodes): the
		// grid size is the number of register stacks multiplexed over
		// one reconfiguration layer.
		ID: "E11", Title: "shard scaling (N = shards, 3 nodes)", Metric: "ops/kilotick",
		DefaultSizes: []int{1, 2, 4, 8},
		Series: []engine.SeriesSpec{
			{Key: "write", Name: "E11 write throughput (ops/kilotick)", Run: e11Cell(false)},
			{Key: "syncread", Name: "E11 sync-read throughput (ops/kilotick)", Run: e11Cell(true)},
		},
	})
	engine.MustRegister(engine.Descriptor{
		// E12 sweeps the BATCH bound (the cluster stays 3 nodes, one
		// shard): the grid size is the payload/command batch carried per
		// datalink token cycle and multicast round input (DESIGN.md §11).
		ID: "E12", Title: "batch scaling (N = batch, 3 nodes)", Metric: "ops/kilotick",
		DefaultSizes: []int{1, 4, 16, 64}, MinSize: 1,
		Series: []engine.SeriesSpec{
			{Key: "write", Name: "E12 write throughput (ops/kilotick)", Run: e12Cell(false)},
			{Key: "syncread", Name: "E12 sync-read throughput (ops/kilotick)", Run: e12Cell(true)},
		},
	})
	engine.MustRegister(engine.Descriptor{
		// E13 sweeps the WINDOW (the cluster stays 3 nodes, one shard,
		// batch 16): the grid size is the in-flight token cycles per
		// datalink (DESIGN.md §14). The write arm measures throughput in
		// the simulator; the binbytes arm is the codec lever —
		// deterministic encoded bytes per payload of an N-payload hot
		// DATA batch.
		ID: "E13", Title: "pipelining frontier (N = window, 3 nodes, batch 16)", Metric: "ops/kilotick",
		DefaultSizes: []int{1, 2, 4, 8}, MinSize: 1,
		Series: []engine.SeriesSpec{
			{Key: "write", Name: "E13 write throughput, static batch (ops/kilotick)", Run: e13Cell},
			{Key: "binbytes", Name: "E13 binary codec (bytes/payload)", Run: e13CodecCell},
		},
	})
	engine.MustRegister(engine.Descriptor{
		// E14 sweeps the WINDOW over churn profiles: each arm fixes a
		// churn event (a mid-service crash of a configuration member, or
		// a fresh Algorithm 3.3 joiner) and a hot-path batch bound, and
		// measures the virtual recovery/adoption time (see
		// e14KillCell/e14JoinCell). The grid is the deterministic twin of
		// cmd/nodeload's live -noded harness: the simnet numbers predict
		// how the live recovery times should move with the levers.
		ID: "E14", Title: "churn recovery (N = window; kill/join × batch)", Metric: "vticks",
		DefaultSizes: []int{1, 4}, MinSize: 1,
		Series: []engine.SeriesSpec{
			{Key: "kill_b1", Name: "E14 kill→recovered, batch 1 (ticks)", Run: e14KillCell(1)},
			{Key: "kill_b16", Name: "E14 kill→recovered, batch 16 (ticks)", Run: e14KillCell(16)},
			{Key: "join_b1", Name: "E14 join→serving, batch 1 (ticks)", Run: e14JoinCell(1)},
			{Key: "join_b16", Name: "E14 join→serving, batch 16 (ticks)", Run: e14JoinCell(16)},
		},
	})
}

// runSeries sweeps one registered series sequentially over sizes, using
// the same base seed for every size (the pre-engine contract kept for
// tests and direct callers; the engine derives decorrelated per-cell
// seeds instead).
func runSeries(id, key string, seed int64, sizes []int) workload.Series {
	d, ok := engine.Get(id)
	if !ok {
		panic(fmt.Sprintf("experiments: %s not registered", id))
	}
	for _, spec := range d.Series {
		if spec.Key != key {
			continue
		}
		s := workload.Series{Name: spec.Name}
		for _, n := range sizes {
			if n < d.MinSize {
				n = d.MinSize
			}
			s.Rows = append(s.Rows, spec.Run(seed, n))
		}
		return s
	}
	panic(fmt.Sprintf("experiments: %s has no series %q", id, key))
}

// E1DelicateLatency measures Figure 2 / Theorem 3.16 (see e1Cell).
func E1DelicateLatency(seed int64, sizes []int) workload.Series {
	return runSeries("E1", "", seed, sizes)
}

// E2BruteForceConvergence measures Theorem 3.15 (see e2Cell).
func E2BruteForceConvergence(seed int64, sizes []int) workload.Series {
	return runSeries("E2", "", seed, sizes)
}

// E3SpuriousTriggers measures Lemma 3.18 (see e3Cell).
func E3SpuriousTriggers(seed int64, sizes []int) workload.Series {
	return runSeries("E3", "", seed, sizes)
}

// E4LabelCreations measures Theorem 4.4 in both arms: creations from an
// arbitrary corrupted start and right after a clean rebuild.
func E4LabelCreations(seed int64, sizes []int) []workload.Series {
	return []workload.Series{
		runSeries("E4", "arbitrary", seed, sizes),
		runSeries("E4", "postreco", seed, sizes),
	}
}

// E5CounterIncrement measures Theorem 4.6 operationally (see e5Cell).
func E5CounterIncrement(seed int64, sizes []int) workload.Series {
	return runSeries("E5", "", seed, sizes)
}

// E6VSReconfiguration measures Theorem 4.13 (see e6Cell). Sizes below 5
// are raised to 5.
func E6VSReconfiguration(seed int64, sizes []int) workload.Series {
	return runSeries("E6", "", seed, sizes)
}

// E7JoinLatency measures Theorem 3.26 (see e7Cell).
func E7JoinLatency(seed int64, sizes []int) workload.Series {
	return runSeries("E7", "", seed, sizes)
}

// E8BaselineComparison reproduces the paper's headline claim (§1): after
// a transient fault the self-stabilizing scheme recovers while the
// coherent-start baseline stays split forever (reported as the deadline).
func E8BaselineComparison(seed int64, sizes []int) []workload.Series {
	return []workload.Series{
		runSeries("E8", "selfstab", seed, sizes),
		runSeries("E8", "baseline", seed, sizes),
	}
}

// E9SharedMemory measures the MWMR register emulation's operation latency
// (see e9Cell).
func E9SharedMemory(seed int64, sizes []int) workload.Series {
	return runSeries("E9", "", seed, sizes)
}

// E10Ablation compares the degree-gap staleness tolerance (DESIGN.md §4
// note 5): paper-strict gap 1 versus the default 2.
func E10Ablation(seed int64, sizes []int) []workload.Series {
	return []workload.Series{
		runSeries("E10", "gap1", seed, sizes),
		runSeries("E10", "gap2", seed, sizes),
	}
}

// E11ShardScaling measures aggregate write and sync-read throughput as
// the register namespace is partitioned over 1/2/4/8 shards (see
// e11Cell; sizes are shard counts).
func E11ShardScaling(seed int64, shardCounts []int) []workload.Series {
	return []workload.Series{
		runSeries("E11", "write", seed, shardCounts),
		runSeries("E11", "syncread", seed, shardCounts),
	}
}

// E12BatchScaling measures write and sync-read throughput as the hot
// path batches 1/4/16/64 payloads per datalink token and commands per
// round (see e12Cell; sizes are batch bounds).
func E12BatchScaling(seed int64, batches []int) []workload.Series {
	return []workload.Series{
		runSeries("E12", "write", seed, batches),
		runSeries("E12", "syncread", seed, batches),
	}
}

// E13PipeliningFrontier charts the latency/throughput frontier's two
// levers (see e13Cell and e13CodecCell; sizes are datalink windows, and
// the codec series' batch sizes): write throughput as the window widens,
// plus the deterministic bytes-per-payload of the wire codec.
func E13PipeliningFrontier(seed int64, windows []int) []workload.Series {
	return []workload.Series{
		runSeries("E13", "write", seed, windows),
		runSeries("E13", "binbytes", seed, windows),
	}
}

// E14ChurnRecovery measures recovery from live churn in the simulator:
// crash-of-a-member recovery time and fresh-joiner adoption time, each
// at batch 1 and 16, swept over the datalink window (see e14KillCell
// and e14JoinCell). The deterministic baseline for cmd/nodeload -noded.
func E14ChurnRecovery(seed int64, windows []int) []workload.Series {
	return []workload.Series{
		runSeries("E14", "kill_b1", seed, windows),
		runSeries("E14", "kill_b16", seed, windows),
		runSeries("E14", "join_b1", seed, windows),
		runSeries("E14", "join_b16", seed, windows),
	}
}
