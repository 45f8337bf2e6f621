package experiments

import (
	"testing"

	"repro/internal/experiments/engine"
	"repro/internal/workload"
)

// requireCells runs every series of a registered experiment at the given
// seed over sizes (raised to the experiment's MinSize, as the engine
// does) and requires each row to be valid — or, for a series registered
// ExpectInvalid (E8's coherent-start baseline), each row to be invalid.
func requireCells(t *testing.T, id string, seed int64, sizes ...int) {
	t.Helper()
	d, ok := engine.Get(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	for _, spec := range d.Series {
		for _, n := range sizes {
			r := spec.Run(seed, max(n, d.MinSize))
			t.Logf("%s x=%d y=%.2f valid=%v %s", spec.Name, r.X, r.Y, r.Valid, r.Note)
			if r.Valid == spec.ExpectInvalid {
				t.Errorf("%s: x=%d valid=%v, want %v (%s)", spec.Name, r.X, r.Valid, !spec.ExpectInvalid, r.Note)
			}
		}
	}
}

func TestE1(t *testing.T)  { requireCells(t, "E1", 101, 4) }
func TestE2(t *testing.T)  { requireCells(t, "E2", 102, 4) }
func TestE3(t *testing.T)  { requireCells(t, "E3", 103, 4) }
func TestE4(t *testing.T)  { requireCells(t, "E4", 104, 4) }
func TestE5(t *testing.T)  { requireCells(t, "E5", 105, 4) }
func TestE6(t *testing.T)  { requireCells(t, "E6", 106, 5) }
func TestE7(t *testing.T)  { requireCells(t, "E7", 107, 4) }
func TestE8(t *testing.T)  { requireCells(t, "E8", 108, 4) }
func TestE9(t *testing.T)  { requireCells(t, "E9", 109, 4) }
func TestE10(t *testing.T) { requireCells(t, "E10", 110, 4) }
func TestE11(t *testing.T) { requireCells(t, "E11", 111, 1, 2) }
func TestE12(t *testing.T) { requireCells(t, "E12", 112, 1, 4) }
func TestE13(t *testing.T) { requireCells(t, "E13", 113, 1, 2) }
func TestE14(t *testing.T) { requireCells(t, "E14", 114, 1, 4) }

// cell runs one cell of a registered series at seed 42, the seed the
// speedup thresholds below were set at, and requires it to be valid.
func cell(t *testing.T, id, key string, n int) workload.Row {
	t.Helper()
	d, ok := engine.Get(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	for _, spec := range d.Series {
		if spec.Key == key {
			r := spec.Run(42, n)
			if !r.Valid {
				t.Fatalf("%s at %d invalid: %+v", spec.Name, n, r)
			}
			return r
		}
	}
	t.Fatalf("%s has no series %q", id, key)
	return workload.Row{}
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
	b, w := cell(t, "E12", "write", 16), cell(t, "E13", "write", 4)
	if w.Y < 1.5*b.Y {
		t.Fatalf("window-4 write throughput %.3f < 1.5× stop-and-wait batch-16 %.3f ops/kilotick", w.Y, b.Y)
	}
	t.Logf("write throughput: window 1 (E12) %.3f, window 4 %.3f ops/kilotick (%.2fx)",
		b.Y, w.Y, w.Y/b.Y)
	want := []float64{34, 27, 23.5, 21.75}
	prev := 0.0
	for i, n := range []int{1, 2, 4, 8} {
		row := cell(t, "E13", "binbytes", n)
		if row.Y != want[i] {
			t.Errorf("batch %d: %.2f bytes/payload, want %.2f", n, row.Y, want[i])
		}
		if i > 0 && row.Y >= prev {
			t.Errorf("batch %d: %.2f bytes/payload does not fall below the previous batch's %.2f", n, row.Y, prev)
		}
		prev = row.Y
	}
}

// TestE12BatchScalingSpeedup is this tentpole's acceptance check: with
// the hot path batching up to 16 payloads per token cycle (and commands
// per round), aggregate write throughput on the 3-node cluster must be
// at least 2× the unbatched baseline — in the deterministic simulator's
// virtual time, so the assertion is exact and reproducible.
func TestE12BatchScalingSpeedup(t *testing.T) {
	one, sixteen := cell(t, "E12", "write", 1), cell(t, "E12", "write", 16)
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
	one, four := cell(t, "E11", "write", 1), cell(t, "E11", "write", 4)
	if four.Y < 2*one.Y {
		t.Fatalf("4-shard write throughput %.3f < 2× 1-shard %.3f ops/kilotick", four.Y, one.Y)
	}
	t.Logf("write throughput: 1 shard %.3f, 4 shards %.3f ops/kilotick (%.2fx)",
		one.Y, four.Y, four.Y/one.Y)
}
