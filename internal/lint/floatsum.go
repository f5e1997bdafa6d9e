package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatSum guards the PR 4 worker-independence contract: in the
// deterministic packages, a float total over slice data must not be built
// by an ad-hoc `+=` loop — it must be produced by the shared block
// reduction, which cuts every span into fixed csr.ReduceBlockSize blocks
// (csr.SpanBlocks), sums each block left-to-right, and folds the partials
// with a combine tree shaped only by the block count (csr.Pairwise). An
// ad-hoc loop has two failure modes the contract exists to prevent: its
// grouping silently diverges from the blocked engines' (so "equivalent"
// code paths stop being bit-identical), and the first person to
// parallelize it with a scheduler-shaped reduction makes every low-order
// bit worker-dependent.
//
// The analyzer flags loops over slice/array data that fold elements into a
// float accumulator declared outside the loop with `+=`/`-=` or
// `x = x + e`. Three shapes are recognized as within contract and
// permitted:
//
//   - accumulation into an element indexed by the loop variable
//     (elementwise: each iteration owns its cell, no cross-iteration
//     order);
//   - a loop whose range is bounded by a csr.Block's Lo/Hi fields — that
//     IS the in-block sum the reduction is built from;
//   - an accumulator declared inside an enclosing loop of the same
//     function: a per-group partial (one item's softmax denominator, one
//     provenance's span sum) whose order is the group's CSR span order,
//     fixed by the data and owned whole by a single worker.
//
// What stays flagged is exactly the dangerous residue: whole-pass totals
// (function- or package-scope accumulators) and per-worker partials
// declared in a ParallelRange callback — a closure is not a loop, and
// chunk-shaped partial sums are the worker-count-dependent grouping PR 4
// removed. Reference engines whose global left-to-right order is the
// golden spec suppress with //lint:ignore kflint/floatsum <reason>.
var FloatSum = &Analyzer{
	Name: "floatsum",
	Packages: []string{
		"kfusion/internal/fusion",
		"kfusion/internal/twolayer",
		"kfusion/internal/extract",
		"kfusion/internal/csr",
		"kfusion/internal/multitruth",
	},
	Run: runFloatSum,
}

const blockPkg = "kfusion/internal/csr"

func runFloatSum(pass *Pass) error {
	for _, file := range pass.Files {
		parents := buildParents(file)
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var loop ast.Node
			loopVars := map[types.Object]bool{}
			switch l := n.(type) {
			case *ast.RangeStmt:
				if !isSliceOrArray(pass.TypesInfo.TypeOf(l.X)) {
					return true
				}
				if blockBoundedExpr(pass.TypesInfo, l.X) {
					return true // in-block sum: the reduction primitive itself
				}
				body, loop = l.Body, l
				for _, v := range []ast.Expr{l.Key, l.Value} {
					if id, ok := v.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							loopVars[obj] = true
						}
					}
				}
			case *ast.ForStmt:
				if blockBoundedFor(pass.TypesInfo, l) {
					return true
				}
				body, loop = l.Body, l
				if init, ok := l.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
					for _, lh := range init.Lhs {
						if id, ok := lh.(*ast.Ident); ok {
							if obj := pass.TypesInfo.Defs[id]; obj != nil {
								loopVars[obj] = true
							}
						}
					}
				}
			default:
				return true
			}

			for _, st := range body.List {
				checkFloatAccum(pass, st, loop, loopVars, parents)
			}
			return true
		})
	}
	return nil
}

// checkFloatAccum flags float accumulations in the loop's direct statement
// list (and through if/block nesting — nested for/range loops are visited
// as loops in their own right).
func checkFloatAccum(pass *Pass, s ast.Stmt, loop ast.Node, loopVars map[types.Object]bool, parents parentMap) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			checkFloatAccum(pass, st, loop, loopVars, parents)
		}
	case *ast.IfStmt:
		checkFloatAccum(pass, s.Body, loop, loopVars, parents)
		if s.Else != nil {
			checkFloatAccum(pass, s.Else, loop, loopVars, parents)
		}
	case *ast.AssignStmt:
		if accum, lhs := floatAccumTarget(pass.TypesInfo, s); accum {
			if obj := rootObject(pass.TypesInfo, lhs); obj != nil && !declaredWithin(obj, loop) && !elementwiseTarget(pass.TypesInfo, lhs, loopVars) &&
				!perGroupPartial(obj, loop, parents) {
				// Accumulation over data derived from the loop, into an
				// accumulator that outlives every group: the naive
				// whole-pass reduction shape.
				if usesLoopLocal(pass.TypesInfo, s.Rhs[0], loop) {
					pass.Reportf(s.TokPos,
						"naive float accumulation over slice data: the reduction shape is ad hoc, not the fixed-block contract; sum csr.SpanBlocks blocks and fold with csr.Pairwise")
				}
			}
		}
	}
}

// perGroupPartial reports whether the accumulator obj is declared inside a
// loop of the same function that encloses the flagged loop: a per-group
// partial whose whole sum is owned by one iteration of that outer loop.
// The climb stops at function literals — a ParallelRange callback is not a
// loop, and a per-worker partial declared in one is exactly the
// chunk-shaped reduction the contract forbids.
func perGroupPartial(obj types.Object, loop ast.Node, parents parentMap) bool {
	for n := parents[loop]; n != nil; n = parents[n] {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if declaredWithin(obj, n) {
				return true
			}
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}

// usesLoopLocal reports whether the expression reads anything declared
// within the loop — the range/index variables or values derived from them
// in the body — i.e. the accumulation actually folds loop data.
func usesLoopLocal(info *types.Info, n ast.Node, loop ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && declaredWithin(obj, loop) {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// floatAccumTarget reports whether s is `x += e`, `x -= e` or `x = x + e`
// with x of float type, returning the accumulator expression.
func floatAccumTarget(info *types.Info, s *ast.AssignStmt) (bool, ast.Expr) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false, nil
	}
	lhs := s.Lhs[0]
	if !isFloat(info.TypeOf(lhs)) {
		return false, nil
	}
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		return true, lhs
	case token.ASSIGN:
		// x = x + e / x = e + x
		bin, ok := ast.Unparen(s.Rhs[0]).(*ast.BinaryExpr)
		if !ok || bin.Op != token.ADD && bin.Op != token.SUB {
			return false, nil
		}
		lobj := rootObject(info, lhs)
		if lobj == nil {
			return false, nil
		}
		if sameTarget(info, bin.X, lhs) || bin.Op == token.ADD && sameTarget(info, bin.Y, lhs) {
			return true, lhs
		}
	}
	return false, nil
}

func sameTarget(info *types.Info, a, b ast.Expr) bool {
	ra, rb := rootObject(info, a), rootObject(info, b)
	return ra != nil && ra == rb
}

// rootObject resolves the variable at the root of an lvalue: `x` → x,
// `x[i]` → x, `s.f` → s, `(*p).f[i]` → p.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[t]; obj != nil {
				return obj
			}
			return info.Defs[t]
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			// A qualified name (pkg.Var) resolves through the selection.
			if obj := info.Uses[t.Sel]; obj != nil {
				if _, ok := obj.(*types.Var); ok && t.Sel.Name == obj.Name() {
					if id, isIdent := t.X.(*ast.Ident); isIdent {
						if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
							return obj
						}
					}
				}
			}
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// elementwiseTarget reports whether lhs is an element indexed by a loop
// variable (out[i] += ...): each iteration owns its own cell, so there is
// no cross-iteration reduction order at all.
func elementwiseTarget(info *types.Info, lhs ast.Expr, loopVars map[types.Object]bool) bool {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	return usesAnyObject(info, idx.Index, loopVars)
}

func usesAnyObject(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
			return false
		}
		return !found
	})
	return found
}

// blockBoundedExpr reports whether e is `xs[b.Lo:b.Hi]` (or with int
// conversions) where b is a csr.Block — the fixed-block slice of the
// deterministic reduction.
func blockBoundedExpr(info *types.Info, e ast.Expr) bool {
	sl, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok {
		return false
	}
	return isBlockField(info, sl.Low, "Lo") && isBlockField(info, sl.High, "Hi")
}

// blockBoundedFor reports whether the for loop's condition bound is a
// csr.Block Hi field (`for i := int(b.Lo); i < int(b.Hi); i++`).
func blockBoundedFor(info *types.Info, l *ast.ForStmt) bool {
	cond, ok := l.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS && cond.Op != token.LEQ {
		return false
	}
	return isBlockField(info, cond.Y, "Hi")
}

// isBlockField reports whether e is (a conversion of) a selector field
// sel on a value of type csr.Block.
func isBlockField(info *types.Info, e ast.Expr, field string) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			e = ast.Unparen(call.Args[0])
		}
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != field {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Block" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == blockPkg
}
