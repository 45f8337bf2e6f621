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
	// Report every differing line with the columns that moved, so a
	// re-baseline can list them.
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	var header []string
	differ := 0
	for i := range max(len(gotLines), len(wantLines)) {
		g, w := at(gotLines, i), at(wantLines, i)
		if strings.HasPrefix(w, "experiment,") {
			header = strings.Split(w, ",") // of the cell table, then of the summary
		}
		if g == w {
			continue
		}
		differ++
		t.Errorf("line %d, %s:\n got  %s\n want %s", i+1, movedColumns(header, g, w), g, w)
	}
	t.Errorf("%d lines differ (%d lines, checked in %d)", differ, len(gotLines), len(wantLines))
}

// at is s[i], or "" past the end of s.
func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return ""
}

// movedColumns names the CSV columns in which two lines differ.
func movedColumns(header []string, got, want string) string {
	g, w := strings.Split(got, ","), strings.Split(want, ",")
	var moved []string
	for c := range max(len(g), len(w)) {
		if at(g, c) == at(w, c) {
			continue
		}
		col := fmt.Sprintf("column %d", c+1)
		if c < len(header) {
			col = header[c]
		}
		moved = append(moved, col)
	}
	return strings.Join(moved, ", ")
}
