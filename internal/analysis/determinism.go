package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterministicPackages are the package names (matched as import-path
// segments) whose seed-42 outputs must stay byte-identical across runs
// and parallelism levels — the EXPERIMENTS.md contract CI pins with
// cmp-based determinism smokes — and every package a simulated step runs
// through.
var DeterministicPackages = []string{
	"experiments", "netsim", "datalink", "smr", "vs", "regmem", "shard", "sim",
	"label", "counter", "recsa", "recma", "fd", "join", "core", "quorum", "ids",
}

// Determinism forbids nondeterminism sources in the deterministic
// packages:
//
//   - wall-clock reads (time.Now and friends, timers),
//   - the global math/rand source (seeded *rand.Rand instances are the
//     sanctioned path — per-cell FNV-derived seeds),
//   - environment reads (os.Getenv/LookupEnv/Environ),
//   - iteration over a map in an order-sensitive way. A map range is
//     accepted when its body is syntactically order-insensitive
//     (commutative accumulation, map stores, deletes) or when the
//     enclosing function sorts (package sort/slices) — the
//     collect-keys-then-sort idiom.
//
// Legitimate exceptions carry //repolint:allow determinism -- <why>.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "no wall clock, global math/rand, env reads, or order-sensitive map iteration " +
		"in the byte-determinism packages (experiments, netsim, datalink, smr, vs, regmem, shard, sim, " +
		"label, counter, recsa, recma, fd, join, core, quorum, ids)",
	Run: runDeterminism,
}

// forbiddenCalls maps package path → function names that introduce
// nondeterminism when called from a deterministic package.
var forbiddenCalls = map[string]map[string]string{
	"time": {
		"Now": "wall clock", "Since": "wall clock", "Until": "wall clock",
		"Sleep": "wall-clock delay", "After": "wall-clock timer", "Tick": "wall-clock timer",
		"NewTimer": "wall-clock timer", "NewTicker": "wall-clock timer", "AfterFunc": "wall-clock timer",
	},
	"os": {
		"Getenv": "environment read", "LookupEnv": "environment read", "Environ": "environment read",
	},
}

func runDeterminism(pass *Pass) error {
	inScope := false
	for _, seg := range DeterministicPackages {
		if pass.PathHasSegment(seg) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		f := f
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.TypesInfo, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if what, ok := forbiddenCalls[fn.Pkg().Path()][fn.Name()]; ok && isPkgFunc(fn, fn.Pkg().Path(), fn.Name()) {
					pass.Reportf(n.Pos(),
						"%s.%s (%s) in deterministic package %s breaks byte-identical replay",
						fn.Pkg().Path(), fn.Name(), what, pass.Pkg.Path())
				}
				if fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2" {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !randConstructor(fn.Name()) {
						pass.Reportf(n.Pos(),
							"global math/rand source in deterministic package %s: draw from a seeded *rand.Rand instead",
							pass.Pkg.Path())
					}
				}
			case *ast.RangeStmt:
				if !isMapExpr(pass.TypesInfo, n.X) {
					return true
				}
				if orderInsensitiveBody(n.Body) {
					return true
				}
				if funcSorts(pass, f, n.Pos()) {
					return true
				}
				pass.Reportf(n.Pos(),
					"map iteration order feeds order-sensitive logic in deterministic package %s: collect keys and sort, or make the body commutative",
					pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

// randConstructor exempts the package-level functions that build a
// seeded generator rather than drawing from the global source —
// rand.New(rand.NewSource(seed)) is the sanctioned pattern.
func randConstructor(name string) bool {
	switch name {
	case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
		return true
	}
	return false
}

// funcSorts reports whether the function enclosing pos calls into
// package sort or slices — the collect-then-sort idiom that makes a map
// range deterministic.
func funcSorts(pass *Pass, f *ast.File, pos token.Pos) bool {
	fn := enclosingFunc(f, pos)
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if callee := calleeFunc(pass.TypesInfo, call); callee != nil && callee.Pkg() != nil {
			switch callee.Pkg().Path() {
			case "sort", "slices":
				found = true
			}
		}
		return !found
	})
	return found
}

// orderInsensitiveBody reports whether every statement in a map-range
// body is commutative across iterations: counter accumulation (x += v,
// x++, x *= v, bit-ops), stores into another map, deletes, and
// if/blocks of the same. Anything else — appends, sends, plain
// assignments, calls — is treated as order-sensitive.
func orderInsensitiveBody(body *ast.BlockStmt) bool {
	for _, s := range body.List {
		if !orderInsensitiveStmt(s) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.AND_NOT_ASSIGN:
			return true
		case token.ASSIGN:
			// m[k] = v — distinct keys land regardless of order.
			for _, lhs := range s.Lhs {
				if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); !ok {
					return false
				}
			}
			return true
		}
		return false
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "delete"
	case *ast.IfStmt:
		// An if-scoped := init (comma-ok lookups and the like) is fine;
		// its bindings die with the branch.
		if s.Init != nil {
			init, ok := s.Init.(*ast.AssignStmt)
			if !(ok && init.Tok == token.DEFINE) && !orderInsensitiveStmt(s.Init) {
				return false
			}
		}
		if !orderInsensitiveBody(s.Body) {
			return false
		}
		if s.Else != nil {
			return orderInsensitiveStmt(s.Else)
		}
		return true
	case *ast.BlockStmt:
		return orderInsensitiveBody(s)
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	}
	return false
}
