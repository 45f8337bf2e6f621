package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments/engine"
)

// TestSeed42TablesAreByteIdentical regenerates what
//
//	benchtab -seed 42 -sizes 4 -repeats 1 -format csv
//
// prints — every series of E1–E14 at size 4, the per-cell table, a blank
// line, the summary — and compares it byte for byte with the checked-in
// copy. Every value is a count on the simulated clock, so nothing but a
// change to what the protocols do, or to the order in which the simulator
// draws from its seeded source, moves a cell; work that only makes a step
// cheaper must leave the file alone (DESIGN.md §3, "What a step may cache").
// A deliberate re-baseline redirects that command into the file, in a
// commit that does nothing else.
func TestSeed42TablesAreByteIdentical(t *testing.T) {
	rep, err := engine.Run(engine.Config{Seed: 42, Sizes: []int{4}, Repeats: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := engine.WriteCellsCSV(&got, rep); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&got)
	if err := engine.WriteSummaryCSV(&got, rep); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "seed42_sizes4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	var header []string
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if strings.HasPrefix(wantLines[i], "experiment,") {
			header = strings.Split(wantLines[i], ",") // of the cell table, then of the summary
		}
		if gotLines[i] == wantLines[i] {
			continue
		}
		g, w := strings.Split(gotLines[i], ","), strings.Split(wantLines[i], ",")
		for c := 0; c < len(g) && c < len(w); c++ {
			if g[c] != w[c] {
				col := fmt.Sprintf("column %d", c+1)
				if c < len(header) {
					col = header[c]
				}
				t.Fatalf("line %d, %s: got %q, checked in %q\n got  %s\n want %s", i+1, col, g[c], w[c], gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("line %d differs in length:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
	}
	t.Fatalf("%d lines, checked in %d", len(gotLines), len(wantLines))
}
