package experiments

import (
	"testing"

	"repro/internal/workload"
)

func requireValid(t *testing.T, s workload.Series) {
	t.Helper()
	if len(s.Rows) == 0 {
		t.Fatalf("%s: empty series", s.Name)
	}
	for _, r := range s.Rows {
		if !r.Valid {
			t.Errorf("%s: x=%d invalid (%s)", s.Name, r.X, r.Note)
		}
	}
	t.Log("\n" + s.Render())
}

var tinySizes = []int{4}

func TestE1(t *testing.T) { requireValid(t, E1DelicateLatency(101, tinySizes)) }
func TestE2(t *testing.T) { requireValid(t, E2BruteForceConvergence(102, tinySizes)) }
func TestE3(t *testing.T) { requireValid(t, E3SpuriousTriggers(103, tinySizes)) }

func TestE4(t *testing.T) {
	for _, s := range E4LabelCreations(104, tinySizes) {
		requireValid(t, s)
	}
}

func TestE5(t *testing.T) { requireValid(t, E5CounterIncrement(105, tinySizes)) }
func TestE6(t *testing.T) { requireValid(t, E6VSReconfiguration(106, []int{5})) }
func TestE7(t *testing.T) { requireValid(t, E7JoinLatency(107, tinySizes)) }

func TestE8(t *testing.T) {
	series := E8BaselineComparison(108, tinySizes)
	requireValid(t, series[0]) // ours must recover
	// The baseline must NOT recover: its rows are expected invalid.
	base := series[1]
	if len(base.Rows) == 0 {
		t.Fatal("baseline series empty")
	}
	for _, r := range base.Rows {
		if r.Valid {
			t.Errorf("baseline unexpectedly recovered at N=%d", r.X)
		}
	}
	t.Log("\n" + base.Render())
}

func TestE9(t *testing.T) { requireValid(t, E9SharedMemory(109, tinySizes)) }

func TestE10(t *testing.T) {
	for _, s := range E10Ablation(110, tinySizes) {
		requireValid(t, s)
	}
}

func TestE11(t *testing.T) {
	for _, s := range E11ShardScaling(111, []int{1, 2}) {
		requireValid(t, s)
	}
}

func TestE12(t *testing.T) {
	for _, s := range E12BatchScaling(112, []int{1, 4}) {
		requireValid(t, s)
	}
}

func TestE13(t *testing.T) {
	for _, s := range E13PipeliningFrontier(113, []int{1, 2}) {
		requireValid(t, s)
	}
}

func TestE14(t *testing.T) {
	for _, s := range E14ChurnRecovery(114, []int{1, 4}) {
		requireValid(t, s)
	}
}

// TestE13PipeliningSpeedup is this tentpole's acceptance check: with the
// batch bound held at E12's knee (16) and the datalink window widened to
// let cycles restart on acknowledgment, aggregate write throughput on
// the 3-node cluster must reach at least 1.5× the stop-and-wait E12
// batch-16 baseline — in the deterministic simulator's virtual time, so
// the assertion is exact and reproducible. The codec series must also
// show bytes per payload strictly falling as the batch grows over
// 1/2/4/8, at exactly the values the DATA-packet layout has had since the
// binary codec's first version.
func TestE13PipeliningSpeedup(t *testing.T) {
	base := E12BatchScaling(42, []int{16})[0]
	if len(base.Rows) != 1 || !base.Rows[0].Valid {
		t.Fatalf("bad E12 baseline: %+v", base.Rows)
	}
	series := E13PipeliningFrontier(42, []int{4})
	writes := series[0]
	if len(writes.Rows) != 1 || !writes.Rows[0].Valid {
		t.Fatalf("bad E13 window-4 row: %+v", writes.Rows)
	}
	b, w := base.Rows[0], writes.Rows[0]
	if w.Y < 1.5*b.Y {
		t.Fatalf("window-4 write throughput %.3f < 1.5× stop-and-wait batch-16 %.3f ops/kilotick", w.Y, b.Y)
	}
	t.Logf("write throughput: window 1 (E12) %.3f, window 4 %.3f ops/kilotick (%.2fx)",
		b.Y, w.Y, w.Y/b.Y)
	codec := runSeries("E13", "binbytes", 42, []int{1, 2, 4, 8})
	want := []float64{34, 27, 23.5, 21.75}
	for i, row := range codec.Rows {
		if !row.Valid || row.Y != want[i] {
			t.Errorf("batch %d: %.2f bytes/payload (valid %v), want %.2f", row.X, row.Y, row.Valid, want[i])
		}
		if i > 0 && row.Y >= codec.Rows[i-1].Y {
			t.Errorf("batch %d: %.2f bytes/payload does not fall below batch %d's %.2f",
				row.X, row.Y, codec.Rows[i-1].X, codec.Rows[i-1].Y)
		}
	}
}

// TestE12BatchScalingSpeedup is this tentpole's acceptance check: with
// the hot path batching up to 16 payloads per token cycle (and commands
// per round), aggregate write throughput on the 3-node cluster must be
// at least 2× the unbatched baseline — in the deterministic simulator's
// virtual time, so the assertion is exact and reproducible.
func TestE12BatchScalingSpeedup(t *testing.T) {
	series := E12BatchScaling(42, []int{1, 16})
	writes := series[0]
	if len(writes.Rows) != 2 {
		t.Fatalf("want rows for batch 1 and 16, got %+v", writes.Rows)
	}
	one, sixteen := writes.Rows[0], writes.Rows[1]
	if !one.Valid || !sixteen.Valid {
		t.Fatalf("invalid rows: batch-1 %+v, batch-16 %+v", one, sixteen)
	}
	if sixteen.Y < 2*one.Y {
		t.Fatalf("batch-16 write throughput %.3f < 2× batch-1 %.3f ops/kilotick", sixteen.Y, one.Y)
	}
	t.Logf("write throughput: batch 1 %.3f, batch 16 %.3f ops/kilotick (%.2fx)",
		one.Y, sixteen.Y, sixteen.Y/one.Y)
}

// TestE11ShardScalingSpeedup is the tentpole's acceptance check: with
// the register namespace split over 4 shards, aggregate write
// throughput must be at least 2× the single-shard baseline (in the
// deterministic simulator's virtual time, so the assertion is exact and
// reproducible).
func TestE11ShardScalingSpeedup(t *testing.T) {
	series := E11ShardScaling(42, []int{1, 4})
	writes := series[0]
	if len(writes.Rows) != 2 {
		t.Fatalf("want rows for 1 and 4 shards, got %+v", writes.Rows)
	}
	one, four := writes.Rows[0], writes.Rows[1]
	if !one.Valid || !four.Valid {
		t.Fatalf("invalid rows: 1-shard %+v, 4-shard %+v", one, four)
	}
	if four.Y < 2*one.Y {
		t.Fatalf("4-shard write throughput %.3f < 2× 1-shard %.3f ops/kilotick", four.Y, one.Y)
	}
	t.Logf("write throughput: 1 shard %.3f, 4 shards %.3f ops/kilotick (%.2fx)",
		one.Y, four.Y, four.Y/one.Y)
}
