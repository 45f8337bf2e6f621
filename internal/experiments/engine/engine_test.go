package engine_test

import (
	"bytes"
	"fmt"
	"testing"

	_ "repro/internal/experiments" // registers E1–E14
	"repro/internal/experiments/engine"
	"repro/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	all := engine.All()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"}
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, d := range all {
		if d.ID != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, d.ID, want[i])
		}
		if d.Metric == "" {
			t.Errorf("%s: empty metric", d.ID)
		}
		if len(d.DefaultSizes) == 0 {
			t.Errorf("%s: no default sizes", d.ID)
		}
		if len(d.Series) == 0 {
			t.Errorf("%s: no series", d.ID)
		}
	}
	if _, ok := engine.Get("E6"); !ok {
		t.Error("Get(E6) failed")
	}
}

func TestRegisterRejectsBadDescriptors(t *testing.T) {
	noop := func(seed int64, n int) workload.Row { return workload.Row{X: n} }
	cases := []engine.Descriptor{
		{},         // no ID
		{ID: "EX"}, // no series
		{ID: "EY", Series: []engine.SeriesSpec{{Name: "no run"}}},
		{ID: "EZ", Series: []engine.SeriesSpec{ // duplicate key
			{Key: "a", Run: noop}, {Key: "a", Run: noop},
		}},
		{ID: "E1", Series: []engine.SeriesSpec{{Run: noop}}}, // E1 taken
	}
	for i, d := range cases {
		if err := engine.Register(d); err == nil {
			t.Errorf("case %d: Register accepted invalid descriptor", i)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	a := engine.DeriveSeed(42, "E1", "", 4, 0)
	if b := engine.DeriveSeed(42, "E1", "", 4, 0); a != b {
		t.Errorf("DeriveSeed not deterministic: %d vs %d", a, b)
	}
	seen := map[int64]string{}
	for _, id := range []string{"E1", "E2"} {
		for _, key := range []string{"", "arbitrary"} {
			for n := 4; n <= 8; n += 4 {
				for rep := 0; rep < 3; rep++ {
					s := engine.DeriveSeed(42, id, key, n, rep)
					coord := fmt.Sprintf("%s/%s/%d/%d", id, key, n, rep)
					if prev, dup := seen[s]; dup {
						t.Errorf("seed collision: %s and %s both derive %d", prev, coord, s)
					}
					seen[s] = coord
				}
			}
		}
	}
}

func TestRunGridShape(t *testing.T) {
	rep, err := engine.Run(engine.Config{
		Seed:    7,
		Sizes:   []int{4},
		Repeats: 3,
		Workers: 2,
		Only:    map[string]bool{"E4": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// E4 has two series; 1 size × 3 repeats each.
	if len(rep.Cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(rep.Cells))
	}
	for i, r := range rep.Cells {
		if r.Experiment != "E4" || r.N != 4 {
			t.Errorf("cell %d: unexpected coordinates %+v", i, r.Cell)
		}
		if r.Seed == 7 {
			t.Errorf("cell %d: seed not derived from base", i)
		}
	}
	if len(rep.Summary) != 2 {
		t.Fatalf("got %d summary rows, want 2", len(rep.Summary))
	}
	for _, s := range rep.Summary {
		if s.Repeats != 3 {
			t.Errorf("summary %s/%s: repeats %d, want 3", s.Experiment, s.Series, s.Repeats)
		}
		if s.Metric != "creations" {
			t.Errorf("summary %s/%s: metric %q", s.Experiment, s.Series, s.Metric)
		}
		if s.Min > s.Mean || s.Mean > s.Max {
			t.Errorf("summary %s/%s: min %v mean %v max %v out of order",
				s.Experiment, s.Series, s.Min, s.Mean, s.Max)
		}
	}
}

func TestRunClampsToMinSize(t *testing.T) {
	rep, err := engine.Run(engine.Config{
		Seed:    11,
		Sizes:   []int{4, 5},
		Repeats: 1,
		Workers: 2,
		Only:    map[string]bool{"E6": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both requested sizes clamp to E6's MinSize 5 and deduplicate.
	if len(rep.Cells) != 1 || rep.Cells[0].N != 5 {
		t.Fatalf("E6 sizes {4,5}: got cells %+v, want one cell at N=5", rep.Cells)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := engine.Run(engine.Config{Only: map[string]bool{"E99": true}}); err == nil {
		t.Error("Run with unknown experiment id: want error")
	}
}

// TestParallelDeterminism is the regression test for the engine's core
// guarantee: the same config produces byte-identical CSV and JSON output
// whether the grid runs on 1 worker or 8.
func TestParallelDeterminism(t *testing.T) {
	emit := func(workers int) (cells, summary, jsonOut []byte) {
		rep, err := engine.Run(engine.Config{
			Seed:    42,
			Sizes:   []int{4, 6},
			Repeats: 2,
			Workers: workers,
			Only:    map[string]bool{"E4": true},
		})
		if err != nil {
			t.Fatal(err)
		}
		var a, b, c bytes.Buffer
		if err := engine.WriteCellsCSV(&a, rep); err != nil {
			t.Fatal(err)
		}
		if err := engine.WriteSummaryCSV(&b, rep); err != nil {
			t.Fatal(err)
		}
		if err := engine.WriteJSON(&c, rep); err != nil {
			t.Fatal(err)
		}
		return a.Bytes(), b.Bytes(), c.Bytes()
	}
	c1, s1, j1 := emit(1)
	c8, s8, j8 := emit(8)
	if !bytes.Equal(c1, c8) {
		t.Errorf("cells CSV differs between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", c1, c8)
	}
	if !bytes.Equal(s1, s8) {
		t.Errorf("summary CSV differs between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", s1, s8)
	}
	if !bytes.Equal(j1, j8) {
		t.Error("JSON report differs between 1 and 8 workers")
	}
	if len(bytes.Split(bytes.TrimSpace(c1), []byte("\n"))) != 1+2*2*2 {
		t.Errorf("unexpected cells CSV shape:\n%s", c1)
	}
}

// TestParallelDeterminismE11 extends the determinism regression to the
// sharded-register experiment: E11 cells run whole multi-shard cluster
// simulations, and their emissions must still be byte-identical for any
// worker count.
func TestParallelDeterminismE11(t *testing.T) {
	emit := func(workers int) []byte {
		rep, err := engine.Run(engine.Config{
			Seed:    42,
			Sizes:   []int{1, 4},
			Repeats: 1,
			Workers: workers,
			Only:    map[string]bool{"E11": true},
		})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := engine.WriteCellsCSV(&out, rep); err != nil {
			t.Fatal(err)
		}
		if err := engine.WriteJSON(&out, rep); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if p1, p8 := emit(1), emit(8); !bytes.Equal(p1, p8) {
		t.Errorf("E11 emission differs between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", p1, p8)
	}
}

// TestParallelDeterminismE12 extends the determinism regression to the
// batch-scaling experiment: E12 cells run whole batched-hot-path cluster
// simulations (including the batch-1 arm that must stay bit-identical
// to the unbatched configuration), and their emissions must be
// byte-identical for any worker count.
func TestParallelDeterminismE12(t *testing.T) {
	emit := func(workers int) []byte {
		rep, err := engine.Run(engine.Config{
			Seed:    42,
			Sizes:   []int{1, 16},
			Repeats: 1,
			Workers: workers,
			Only:    map[string]bool{"E12": true},
		})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := engine.WriteCellsCSV(&out, rep); err != nil {
			t.Fatal(err)
		}
		if err := engine.WriteJSON(&out, rep); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if p1, p8 := emit(1), emit(8); !bytes.Equal(p1, p8) {
		t.Errorf("E12 emission differs between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", p1, p8)
	}
}

// TestParallelDeterminismE13 extends the determinism regression to the
// pipelining-frontier experiment: E13 cells run whole pipelined
// (window > 1) cluster simulations plus the pure codec
// measurements, and their emissions must be byte-identical for any
// worker count.
func TestParallelDeterminismE13(t *testing.T) {
	emit := func(workers int) []byte {
		rep, err := engine.Run(engine.Config{
			Seed:    42,
			Sizes:   []int{1, 4},
			Repeats: 1,
			Workers: workers,
			Only:    map[string]bool{"E13": true},
		})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := engine.WriteCellsCSV(&out, rep); err != nil {
			t.Fatal(err)
		}
		if err := engine.WriteJSON(&out, rep); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if p1, p8 := emit(1), emit(8); !bytes.Equal(p1, p8) {
		t.Errorf("E13 emission differs between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", p1, p8)
	}
}

// BenchmarkEngineDefaultGrid measures the wall-clock time of the full
// default E1–E10 grid at increasing worker counts; on a multi-core
// machine the 8-worker run should be ≥3× faster than the 1-worker run.
// One iteration takes minutes, so run it as:
//
//	go test -bench EngineDefaultGrid -benchtime 1x ./internal/experiments/engine
func BenchmarkEngineDefaultGrid(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(engine.Config{Seed: 42, Repeats: 1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSmallGrid is the quick variant (sizes 4 and 8 only) for
// iterating on the engine itself.
func BenchmarkEngineSmallGrid(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := engine.Config{Seed: 42, Sizes: []int{4, 8}, Repeats: 1, Workers: workers}
				if _, err := engine.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestParallelDeterminismE14 extends the determinism regression to the
// churn experiment: E14 cells crash members and adopt joiners
// mid-simulation (the paths most tempted to consult wall clocks or
// shared state), and their emissions must be byte-identical for any
// worker count.
func TestParallelDeterminismE14(t *testing.T) {
	emit := func(workers int) []byte {
		rep, err := engine.Run(engine.Config{
			Seed:    42,
			Sizes:   []int{1, 4},
			Repeats: 1,
			Workers: workers,
			Only:    map[string]bool{"E14": true},
		})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := engine.WriteCellsCSV(&out, rep); err != nil {
			t.Fatal(err)
		}
		if err := engine.WriteJSON(&out, rep); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if p1, p8 := emit(1), emit(8); !bytes.Equal(p1, p8) {
		t.Errorf("E14 emission differs between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", p1, p8)
	}
}
