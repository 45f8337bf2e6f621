package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit repolint
// analyzers run over. Only non-test files are loaded — the invariants
// the suite mechanizes (wire schema, determinism, scrape safety,
// metric registration, error envelopes) all live in shipped code, and
// test files are free to use clocks, global rand, and raw writers.
type Package struct {
	Path  string // import path ("repro/internal/smr")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	directives []directive
}

// Loader parses and type-checks packages of one module without any
// dependency on golang.org/x/tools: module-local import paths are
// resolved straight to directories and type-checked recursively, and
// standard-library imports are delegated to the compiler's source
// importer. The module must be dependency-free (this one is — see
// go.mod), which is exactly what makes the stdlib-only loader viable.
type Loader struct {
	ModDir  string // absolute module root
	ModPath string // module path from go.mod

	fset  *token.FileSet
	std   types.Importer
	cache map[string]*Package
	// extra maps fixture import paths to directories outside the module
	// tree (the analysistest harness).
	extra map[string]string
}

// NewLoader builds a loader rooted at the module containing dir (dir or
// an ancestor must hold go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModDir:  root,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   make(map[string]*Package),
		extra:   make(map[string]string),
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Load resolves patterns ("./...", "./internal/...", "./cmd/noded",
// import paths) into loaded packages, in deterministic (path) order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			dirs[d] = true
		}
	}
	var rels []string
	for d := range dirs {
		rels = append(rels, d)
	}
	sort.Strings(rels)
	var out []*Package
	for _, rel := range rels {
		path := l.ModPath
		if rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// expand turns one pattern into module-relative directories holding at
// least one non-test .go file.
func (l *Loader) expand(pat string) ([]string, error) {
	pat = strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/")
	if pat == "" {
		pat = "..."
	}
	recursive := false
	if pat == "..." {
		recursive, pat = true, "."
	} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive, pat = true, rest
	}
	if strings.HasPrefix(pat, l.ModPath) {
		pat = strings.TrimPrefix(strings.TrimPrefix(pat, l.ModPath), "/")
		if pat == "" {
			pat = "."
		}
	}
	base := filepath.Join(l.ModDir, filepath.FromSlash(pat))
	if !recursive {
		if hasGoFiles(base) {
			return []string{pat}, nil
		}
		return nil, fmt.Errorf("analysis: no Go files in %s", base)
	}
	var dirs []string
	err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			rel, err := filepath.Rel(l.ModDir, p)
			if err != nil {
				return err
			}
			dirs = append(dirs, filepath.ToSlash(rel))
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir loads the package in dir under an explicit import path,
// bypassing module-path mapping — the analysistest harness uses it to
// load fixtures whose path (and thus package-scoping) is chosen by the
// test.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l.extra[path] = abs
	return l.load(path)
}

// Import implements types.Importer: module-local and fixture paths are
// loaded by this loader, everything else goes to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") || l.extra[path] != "" {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files in package %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one package by import path, caching the
// result. A directory with no non-test Go files yields (nil, nil).
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	dir := l.extra[path]
	if dir == "" {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		dir = filepath.Join(l.ModDir, filepath.FromSlash(rel))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		// Build constraints (file name suffixes, //go:build lines) as the
		// compiler on this platform sees them: a package may keep one
		// implementation per GOOS.
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		} else if ok {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		l.cache[path] = nil
		return nil, nil
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	pkg.directives = parseDirectives(l.fset, files)
	l.cache[path] = pkg
	return pkg, nil
}
