// Package analysis is repolint's engine: a small, stdlib-only analyzer
// framework (mirroring the shape of golang.org/x/tools/go/analysis,
// which this dependency-free module deliberately does not vendor) plus
// the repository-specific analyzers that mechanize invariants earlier
// PRs could only pin with one-off tests:
//
//   - explicitpresence — the binary wire codec never encodes a raw map
//     length (the PR 8 empty→nil Inputs regression).
//   - determinism — no wall clock, global math/rand, environment reads,
//     or unordered map iteration feeding output in the packages whose
//     seed-42 outputs must stay byte-identical.
//   - atomicfields — a field accessed through sync/atomic is never
//     read or written plainly, and scrape-path methods (Stats, Metrics,
//     QueueLen) hold the owning mutex when they touch plain state.
//   - metricname — every obs.Registry registration uses a constant
//     repro_<subsystem>_<name> family from the checked-in allowlist
//     (metricfamilies.go) with its declared type suffix and label keys.
//   - errenvelope — noded HTTP handlers emit responses only through
//     api.WriteJSON / api.WriteError, so every error carries the
//     uniform envelope.
//
// A legitimate exception is annotated in place:
//
//	//repolint:allow <analyzer>[,<analyzer>] -- <justification>
//
// on the flagged line or the line directly above it. The justification
// is mandatory (a bare allow is itself a finding), and an allow that
// suppresses nothing is reported as unused, so stale annotations cannot
// accumulate. See DESIGN.md §15.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string // short lower-case identifier, used in directives
	Doc  string // one-paragraph description for -list
	Run  func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// A Pass connects one analyzer run to one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg   *Package
	diags []Diagnostic
}

// Reportf records a finding at pos. Findings covered by a well-formed
// //repolint:allow directive for this analyzer (same line or the line
// above) are suppressed, and the directive is marked used.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for i := range p.pkg.directives {
		d := &p.pkg.directives[i]
		if d.malformed || d.pos.Filename != position.Filename {
			continue
		}
		if d.pos.Line != position.Line && d.pos.Line != position.Line-1 {
			continue
		}
		if d.allows(p.Analyzer.Name) {
			d.used = true
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PathHasSegment reports whether the pass's package import path
// contains seg as a whole path element — how analyzers scope themselves
// to named packages while staying testable under fixture paths.
func (p *Pass) PathHasSegment(seg string) bool {
	for _, s := range strings.Split(p.Pkg.Path(), "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// directive is one //repolint:allow comment.
type directive struct {
	pos       token.Position
	analyzers []string
	malformed bool
	reason    string // why it is malformed, for the diagnostic
	used      bool
}

func (d *directive) allows(name string) bool {
	for _, a := range d.analyzers {
		if a == name {
			return true
		}
	}
	return false
}

const directivePrefix = "//repolint:allow"

// parseDirectives scans every comment for //repolint:allow directives.
// Grammar: "//repolint:allow name[,name...] -- justification" — the
// justification is mandatory, so every suppression records why.
func parseDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				d := directive{pos: fset.Position(c.Pos())}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					// Not our directive (e.g. //repolint:allowfoo).
					continue
				}
				names, just, ok := strings.Cut(rest, " -- ")
				names = strings.TrimSpace(names)
				just = strings.TrimSpace(just)
				switch {
				case !ok || just == "":
					d.malformed = true
					d.reason = "missing justification (want //repolint:allow <analyzer> -- <why>)"
				case names == "":
					d.malformed = true
					d.reason = "missing analyzer name (want //repolint:allow <analyzer> -- <why>)"
				default:
					for _, n := range strings.Split(names, ",") {
						d.analyzers = append(d.analyzers, strings.TrimSpace(n))
					}
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// Run executes every analyzer over every package and returns the merged
// findings sorted by position, including malformed and unused
// //repolint:allow directives (reported under the pseudo-analyzer name
// "repolint"). Directive bookkeeping is per call: a directive counts as
// used when any analyzer in this run suppressed a finding at it.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	names := map[string]bool{}
	for _, a := range analyzers {
		names[a.Name] = true
	}
	for _, pkg := range pkgs {
		for i := range pkg.directives {
			pkg.directives[i].used = false
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				pkg:       pkg,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			all = append(all, pass.diags...)
		}
		for _, d := range pkg.directives {
			switch {
			case d.malformed:
				all = append(all, Diagnostic{Pos: d.pos, Analyzer: "repolint",
					Message: "malformed repolint:allow directive: " + d.reason})
			case !d.used && coveredByRun(d, names):
				all = append(all, Diagnostic{Pos: d.pos, Analyzer: "repolint",
					Message: fmt.Sprintf("unused repolint:allow directive for %s: nothing to suppress here",
						strings.Join(d.analyzers, ","))})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return dedupe(all), nil
}

// coveredByRun reports whether every analyzer a directive names ran in
// this invocation — only then can "unused" be judged fairly (the
// analysistest harness runs analyzers one at a time).
func coveredByRun(d directive, ran map[string]bool) bool {
	for _, a := range d.analyzers {
		if !ran[a] {
			return false
		}
	}
	return len(d.analyzers) > 0
}

// dedupe drops identical findings (nested handler scans can visit the
// same expression twice). Input must be sorted.
func dedupe(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// All returns the full repolint analyzer suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		ExplicitPresence,
		Determinism,
		AtomicFields,
		MetricName,
		ErrEnvelope,
	}
}
