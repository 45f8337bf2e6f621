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
// The per-cell simulations live in cells.go, on the shared cluster
// harness in helpers.go; this file registers them with the engine
// registry (internal/experiments/engine), which cmd/benchtab and the
// benchmark's sim workload drive.
package experiments

import (
	"repro/internal/experiments/engine"
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
