package engine_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments/engine"
)

// emitReport is small but reaches every branch of the writers: a
// registered experiment (titled table header, series names), an
// expected-invalid series, CSV quoting in a note, and an unregistered
// experiment (nodeload's rows).
func emitReport() *engine.Report {
	return &engine.Report{
		Seed: 42, Repeats: 2,
		Cells: []engine.Result{
			{Cell: engine.Cell{Experiment: "E8", Series: "selfstab", N: 4, Repeat: 0, Seed: 101}, Value: 312, Valid: true, Note: `view 3, "coord" 1`},
			{Cell: engine.Cell{Experiment: "E8", Series: "selfstab", N: 4, Repeat: 1, Seed: 102}, Value: 298.5, Valid: true},
			{Cell: engine.Cell{Experiment: "E8", Series: "baseline", N: 4, Repeat: 0, Seed: 103}, Value: 20000, Valid: false, Note: "deadline"},
			{Cell: engine.Cell{Experiment: "E8", Series: "baseline", N: 4, Repeat: 1, Seed: 104}, Value: 20000, Valid: false},
			{Cell: engine.Cell{Experiment: "nodeload", Series: "write.p50_ms", N: 8, Repeat: 0, Seed: 1}, Value: 5.0625, Valid: true, Note: "8 clients, 2s"},
		},
		Summary: []engine.Summary{
			{Experiment: "E8", Series: "selfstab", Metric: "vticks", N: 4, Repeats: 2, Valid: 2, Mean: 305.25, Std: 9.545941546018392, Min: 298.5, Max: 312},
			{Experiment: "E8", Series: "baseline", Metric: "vticks", N: 4, Repeats: 2, Valid: 0, Mean: 20000, Min: 20000, Max: 20000},
			{Experiment: "nodeload", Series: "write.p50_ms", Metric: "ms", N: 8, Repeats: 1, Valid: 1, Mean: 5.0625, Min: 5.0625, Max: 5.0625},
		},
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func golden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "emit", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEmitGoldens: Emit's bytes, on stdout and under -out DIR, are the
// ones benchtab wrote before the writer moved into the engine
// (testdata/emit); CI's determinism loop and churn_all.sh parse them.
func TestEmitGoldens(t *testing.T) {
	cases := []struct {
		format, stdout string
		files          []string
	}{
		{"csv", "stdout.csv", []string{"cells.csv", "summary.csv"}},
		{"json", "stdout.json", []string{"results.json"}},
		{"table", "stdout.txt", []string{"results.txt"}},
	}
	for _, c := range cases {
		t.Run(c.format, func(t *testing.T) {
			got := captureStdout(t, func() error { return engine.Emit(emitReport(), c.format, "") })
			if want := golden(t, c.stdout); !bytes.Equal(got, want) {
				t.Errorf("stdout:\n%s\nwant:\n%s", got, want)
			}

			dir := filepath.Join(t.TempDir(), "out")
			got = captureStdout(t, func() error { return engine.Emit(emitReport(), c.format, dir) })
			var wrote bytes.Buffer
			for _, name := range c.files {
				wrote.WriteString("wrote " + filepath.Join(dir, name) + "\n")
				file, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if want := golden(t, name); !bytes.Equal(file, want) {
					t.Errorf("%s:\n%s\nwant:\n%s", name, file, want)
				}
			}
			if !bytes.Equal(got, wrote.Bytes()) {
				t.Errorf("stdout with a dir = %q, want %q", got, wrote.Bytes())
			}
		})
	}
}

// TestEmitUnknownFormat: an unknown format fails before anything is
// written, to stdout or to a directory.
func TestEmitUnknownFormat(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	for _, d := range []string{"", dir} {
		if err := engine.Emit(emitReport(), "xml", d); err == nil {
			t.Errorf("Emit(xml, %q): want error", d)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("Emit(xml) created %s", dir)
	}
}
