package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FusedMath guards the explicit-rounding contract of the numeric packages:
// the Go spec lets a compiler fuse `x*y + z` into one multiply-add that
// skips the product's rounding, unless an explicit conversion rounds it
// (`float64(x*y) + z`). The amd64 compiler never fuses; the arm64 one does,
// so an unconverted product feeding an add is a site whose bits depend on
// the target, and every golden digest with it.
//
// The analyzer flags a float `+` or `-` (binary, or `+=`/`-=`) with an
// operand that is a float `*` not wrapped in a conversion. A product of
// constants is folded at compile time and stays unflagged. The check is
// lexical: a product held in a variable and added statements later can
// still be fused, which the CI lint job's arm64 assembly scan catches.
var FusedMath = &Analyzer{
	Name: "fusedmath",
	Packages: []string{
		"kfusion/internal/mathx",
		"kfusion/internal/fusion",
		"kfusion/internal/twolayer",
		"kfusion/internal/multitruth",
	},
	Run: runFusedMath,
}

func runFusedMath(pass *Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.ADD || n.Op == token.SUB) && isFloat(info.TypeOf(n)) &&
					(unroundedProduct(info, n.X) || unroundedProduct(info, n.Y)) {
					pass.Reportf(n.OpPos, "float %s with an unconverted product operand may compile to a fused multiply-add: round it explicitly, float64(x*y)", n.Op)
				}
			case *ast.AssignStmt:
				if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && len(n.Rhs) == 1 &&
					isFloat(info.TypeOf(n.Lhs[0])) && unroundedProduct(info, n.Rhs[0]) {
					pass.Reportf(n.TokPos, "float %s of an unconverted product may compile to a fused multiply-add: round it explicitly, float64(x*y)", n.Tok)
				}
			}
			return true
		})
	}
	return nil
}

// unroundedProduct reports whether e is, through parentheses, a float
// multiplication that is not a compile-time constant.
func unroundedProduct(info *types.Info, e ast.Expr) bool {
	mul, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return false
	}
	tv, ok := info.Types[mul]
	return ok && tv.Value == nil && isFloat(tv.Type)
}
