package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// ExplicitPresence mechanizes the wire codec's map presence contract
// (DESIGN.md §8) in packages named "wire": the hand-rolled binary codec
// never encodes a raw map length as its on-wire discriminant, and never
// branches on len() of a map. Both collapse the nil/empty distinction
// the vs layer keys behavior off — the exact PR 8 Inputs regression,
// where an assembled-but-empty round arrived as a nil map and downgraded
// every incremental adoption to a wholesale one. Encode presence
// explicitly (0 = nil, n+1 = n entries) and branch on == nil.
var ExplicitPresence = &Analyzer{
	Name: "explicitpresence",
	Doc:  "the binary wire codec keeps the map nil/empty distinction explicit",
	Run:  runExplicitPresence,
}

// encodeCallNames marks callees whose arguments end up on the wire; a
// raw map len() flowing into one is the PR 8 bug shape.
func isEncodeCallee(name string) bool {
	lower := strings.ToLower(name)
	for _, frag := range []string{"varint", "append", "put", "write", "encode"} {
		if strings.Contains(lower, frag) {
			return true
		}
	}
	return false
}

func runExplicitPresence(pass *Pass) error {
	if !pass.PathHasSegment("wire") {
		return nil
	}
	for _, f := range pass.Files {
		checkMapLenEncoding(pass, f)
	}
	return nil
}

// checkMapLenEncoding reports a raw map len() as an encode argument and
// branching on len() of a map.
func checkMapLenEncoding(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.TypesInfo, n)
			if fn == nil || !isEncodeCallee(fn.Name()) {
				return true
			}
			for _, arg := range n.Args {
				if lenOfMap(pass.TypesInfo, arg) {
					pass.Reportf(arg.Pos(),
						"raw map length encoded as wire discriminant: 0 entries and nil collapse to the same bytes (the PR 8 Inputs bug); encode presence explicitly (0 = nil, n+1 = n entries)")
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
				if lenOfMap(pass.TypesInfo, n.X) || lenOfMap(pass.TypesInfo, n.Y) {
					pass.Reportf(n.Pos(),
						"branching on len() of a map conflates nil and empty (the PR 8 Inputs bug); branch on == nil and encode the distinction")
				}
			}
		}
		return true
	})
}
