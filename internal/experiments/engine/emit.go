package engine

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// emitParts maps each output format to the files Emit writes for it,
// in order; on stdout the parts are separated by a blank line.
var emitParts = map[string][]struct {
	file  string
	write func(io.Writer, *Report) error
}{
	"table": {{"results.txt", WriteTable}},
	"csv":   {{"cells.csv", WriteCellsCSV}, {"summary.csv", WriteSummaryCSV}},
	"json":  {{"results.json", WriteJSON}},
}

// CheckFormat rejects a format Emit does not know, so a tool can refuse
// a bad -format before it does any work.
func CheckFormat(format string) error {
	if _, ok := emitParts[format]; !ok {
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}

// Emit writes the report in format "table", "csv" or "json": to stdout
// when dir is empty, otherwise to files under dir (results.txt,
// cells.csv + summary.csv, or results.json), printing "wrote <path>"
// for each file. On stdout, csv is the per-cell table, a blank line,
// then the grouped summary. benchtab and nodeload both emit through it,
// so CI and the scripts parse one output contract.
func Emit(rep *Report, format, dir string) error {
	if err := CheckFormat(format); err != nil {
		return err
	}
	parts := emitParts[format]
	if dir == "" {
		for i, p := range parts {
			if i > 0 {
				if _, err := fmt.Fprintln(os.Stdout); err != nil {
					return err
				}
			}
			if err := p.write(os.Stdout, rep); err != nil {
				return err
			}
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, p := range parts {
		path := filepath.Join(dir, p.file)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := p.write(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

// fnum formats a float with the shortest round-trip representation, so
// emissions are deterministic and diff-friendly.
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCellsCSV emits one CSV row per grid cell, in grid order.
func WriteCellsCSV(w io.Writer, rep *Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "series", "n", "repeat", "seed", "value", "valid", "note"}); err != nil {
		return err
	}
	for _, r := range rep.Cells {
		rec := []string{
			r.Experiment,
			r.Series,
			strconv.Itoa(r.N),
			strconv.Itoa(r.Repeat),
			strconv.FormatInt(r.Seed, 10),
			fnum(r.Value),
			strconv.FormatBool(r.Valid),
			r.Note,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSummaryCSV emits the grouped mean/std summary, one CSV row per
// (experiment, series, size).
func WriteSummaryCSV(w io.Writer, rep *Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "series", "metric", "n", "repeats", "valid", "mean", "std", "min", "max"}); err != nil {
		return err
	}
	for _, s := range rep.Summary {
		rec := []string{
			s.Experiment,
			s.Series,
			s.Metric,
			strconv.Itoa(s.N),
			strconv.Itoa(s.Repeats),
			strconv.Itoa(s.Valid),
			fnum(s.Mean),
			fnum(s.Std),
			fnum(s.Min),
			fnum(s.Max),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the full report (cells plus summary) as indented JSON.
func WriteJSON(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteTable renders the report as fixed-width per-experiment tables, the
// format recorded in EXPERIMENTS.md: the grouped summary per size, with
// the first repeat's note attached.
func WriteTable(w io.Writer, rep *Report) error {
	note := map[[3]string]string{}
	for _, r := range rep.Cells {
		k := [3]string{r.Experiment, r.Series, strconv.Itoa(r.N)}
		if _, seen := note[k]; !seen && r.Repeat == 0 {
			note[k] = r.Note
		}
	}
	titles := map[string]string{}
	metrics := map[string]string{}
	expectInvalid := map[string]bool{}
	for _, d := range All() {
		titles[d.ID] = d.Title
		for _, s := range d.Series {
			metrics[d.ID+"\x00"+s.Key] = s.Name
			expectInvalid[d.ID+"\x00"+s.Key] = s.ExpectInvalid
		}
	}
	lastHeader := ""
	for _, s := range rep.Summary {
		header := s.Experiment
		if t := titles[s.Experiment]; t != "" {
			header = fmt.Sprintf("%s — %s (%s)", s.Experiment, t, s.Metric)
		}
		if header != lastHeader {
			if lastHeader != "" {
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "=== %s ===\n", header); err != nil {
				return err
			}
			lastHeader = header
		}
		name := metrics[s.Experiment+"\x00"+s.Series]
		if name == "" {
			name = s.Series
		}
		k := [3]string{s.Experiment, s.Series, strconv.Itoa(s.N)}
		status := ""
		if s.Valid < s.Repeats {
			if expectInvalid[s.Experiment+"\x00"+s.Series] {
				status = fmt.Sprintf(" (expected invalid: %d/%d)", s.Repeats-s.Valid, s.Repeats)
			} else {
				status = fmt.Sprintf(" (%d/%d timeout)", s.Repeats-s.Valid, s.Repeats)
			}
		}
		_, err := fmt.Fprintf(w, "%-44s %4d %14.2f %12.2f  %s%s\n",
			name, s.N, s.Mean, s.Std, note[k], status)
		if err != nil {
			return err
		}
	}
	return nil
}
