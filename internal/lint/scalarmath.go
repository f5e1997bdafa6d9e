package lint

import (
	"go/ast"
	"go/types"
)

// ScalarMath guards the batched-kernel contract: in the EM engine packages,
// per-element transcendentals must not be evaluated one call at a time
// inside a loop — they belong in a batched internal/mathx kernel pass
// (LogSlice, LogOddsSlice, LogRatioSlice, SoftmaxInto) over a staging
// buffer. Hoisting the transcendentals out of the per-statement/per-claim
// loops is where the batched engines' throughput comes from — a stray
// scalar call in a hot loop is a regression waiting to recur.
//
// The analyzer flags direct math.Exp / math.Log calls lexically inside any
// for/range loop (including loops inside parallel-callback closures — those
// run the loop per chunk, which is exactly the per-element shape). Calls
// outside loops — a prior computed once per round, a constant folded at
// engine construction — are fine and stay unflagged.
//
// Intentionally-scalar spots suppress with //lint:ignore kflint/scalarmath
// <reason>: the reference engines, whose inline scalar evaluation IS the
// golden spec the batched engines are measured against. internal/mathx
// itself is not gated — its kernel loops over math.Exp/math.Log are the
// batching primitive.
var ScalarMath = &Analyzer{
	Name: "scalarmath",
	Doc:  "flags per-element math.Exp/math.Log calls inside loops in the EM engine packages; batch through an internal/mathx kernel pass",
	Packages: []string{
		"kfusion/internal/fusion",
		"kfusion/internal/twolayer",
		"kfusion/internal/multitruth",
	},
	Run: runScalarMath,
}

func runScalarMath(pass *Pass) error {
	for _, file := range pass.Files {
		loopDepth := 0
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				// Init runs once — visit it at the current depth; Cond,
				// Post and Body run per iteration. The manual recursion
				// exists because ast.Inspect has no post-order hook to
				// close the depth with.
				if n.Init != nil {
					ast.Inspect(n.Init, walk)
				}
				loopDepth++
				if n.Cond != nil {
					ast.Inspect(n.Cond, walk)
				}
				if n.Post != nil {
					ast.Inspect(n.Post, walk)
				}
				ast.Inspect(n.Body, walk)
				loopDepth--
				return false
			case *ast.RangeStmt:
				ast.Inspect(n.X, walk) // evaluated once
				loopDepth++
				ast.Inspect(n.Body, walk)
				loopDepth--
				return false
			case *ast.CallExpr:
				if loopDepth > 0 {
					if name := mathTranscendental(pass.TypesInfo, n); name != "" {
						pass.Reportf(n.Pos(),
							"scalar math.%s inside a loop: per-element transcendentals belong in a batched mathx kernel pass over a staging buffer", name)
					}
				}
			}
			return true
		}
		ast.Inspect(file, walk)
	}
	return nil
}

// mathTranscendental reports which gated transcendental (Exp or Log) the
// call invokes from package math, or "" if it is any other call. The list
// is deliberately the two EM hot-loop transcendentals; widening it means
// auditing every gated package for the new name first.
func mathTranscendental(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Exp", "Log":
	default:
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "math" {
		return ""
	}
	return sel.Sel.Name
}
