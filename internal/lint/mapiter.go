package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapIter guards the determinism contract PR 3 established when it fixed
// the seed two-layer engine's map-iteration-order bug: inside the packages
// whose outputs must be bit-reproducible, `range` over a map is forbidden
// unless the loop body is provably order-insensitive. Go randomizes map
// iteration order per run, so any order-sensitive effect — a float
// accumulation, a last-writer-wins assignment, an append consumed unsorted
// — makes results differ run to run and machine to machine.
//
// A body is accepted as order-insensitive when every statement is one of:
//
//   - a write to a map element or to a variable local to the loop body;
//   - an exact commutative update (integer += -= |= &= ^=, ++/--) — integer
//     arithmetic is associative, so the visit order cannot change the total;
//   - delete(m, k);
//   - an append to an outer slice that is sorted (sort.* / slices.Sort*)
//     before its first use after the loop — the collect-then-sort idiom;
//   - control flow (if/continue/break, nested loops) built from the above,
//     with call-free conditions.
//
// Everything else — float accumulation, returns, channel sends, calls with
// unknown effects — is flagged. Restructure onto sorted keys or a compiled
// ID space, or suppress with //lint:ignore kflint/mapiter <reason> where
// the order-insensitivity is real but beyond the checker.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "flags range over a map in the deterministic packages unless the loop body is provably order-insensitive",
	Packages: []string{
		// The compiled engines and their shared primitives: outputs are
		// contractually bit-identical across runs, machines and worker
		// counts.
		"kfusion/internal/fusion",
		"kfusion/internal/twolayer",
		"kfusion/internal/extract",
		"kfusion/internal/csr",
		"kfusion/internal/multitruth",
		// The layers that produce the paper's published numbers: tables,
		// figures and metrics must reproduce exactly between two runs of
		// the same experiment.
		"kfusion/internal/eval",
		"kfusion/internal/stats",
		"kfusion/internal/exper",
		// The synthesizers every feed byte comes from: the world and the
		// crawl are the same at every worker count, and their merges run
		// in index order.
		"kfusion/internal/web",
		"kfusion/internal/world",
	},
	Run: runMapIter,
}

func runMapIter(pass *Pass) error {
	for _, file := range pass.Files {
		parents := buildParents(file)
		c := &mapIterChecker{pass: pass, parents: parents}
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapType(pass.TypesInfo.TypeOf(rs.X)) {
				return true
			}
			if reason := c.orderSensitive(rs); reason != "" {
				pass.Reportf(rs.For,
					"map iteration order is nondeterministic and the loop body is order-sensitive (%s); iterate sorted keys, or restructure the body to be order-insensitive", reason)
			}
			return true
		})
	}
	return nil
}

type mapIterChecker struct {
	pass    *Pass
	parents parentMap
}

// orderSensitive returns "" when every effect of the range body is provably
// independent of visit order, else a short description of the first
// order-sensitive statement found.
func (c *mapIterChecker) orderSensitive(rs *ast.RangeStmt) string {
	return c.checkStmt(rs.Body, rs)
}

// checkStmt returns "" when s is order-insensitive within the map range rs.
func (c *mapIterChecker) checkStmt(s ast.Stmt, rs *ast.RangeStmt) string {
	switch s := s.(type) {
	case nil:
		return ""
	case *ast.BlockStmt:
		for _, st := range s.List {
			if r := c.checkStmt(st, rs); r != "" {
				return r
			}
		}
		return ""
	case *ast.IfStmt:
		if r := c.checkStmt(s.Init, rs); r != "" {
			return r
		}
		if !c.pureExpr(s.Cond) {
			return "condition calls a function with unknown effects"
		}
		if r := c.checkStmt(s.Body, rs); r != "" {
			return r
		}
		return c.checkStmt(s.Else, rs)
	case *ast.AssignStmt:
		return c.checkAssign(s, rs)
	case *ast.IncDecStmt:
		if c.allowedTarget(s.X, rs) || isInteger(c.pass.TypesInfo.TypeOf(s.X)) {
			return ""
		}
		return "increment of an outer non-integer variable"
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR && gd.Tok != token.CONST {
			return "unsupported declaration"
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					if !c.pureExpr(v) {
						return "declaration initializer calls a function with unknown effects"
					}
				}
			}
		}
		return ""
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && isBuiltin(c.pass.TypesInfo, id) {
				return ""
			}
			// Sorting state local to this iteration (sort.Slice(ts, ...)
			// on a slice rebuilt every pass) mutates nothing the next
			// iteration can observe.
			pkg, _ := calledPkgLevel(c.pass.TypesInfo, call)
			if (pkg == "sort" || pkg == "slices") && len(call.Args) > 0 {
				if obj := rootObject(c.pass.TypesInfo, call.Args[0]); obj != nil && declaredWithin(obj, rs) {
					return ""
				}
			}
		}
		return "statement with unknown effects"
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE || s.Tok == token.BREAK {
			return ""
		}
		return "goto/fallthrough in loop body"
	case *ast.RangeStmt:
		if !c.pureExpr(s.X) {
			return "nested range over a computed expression"
		}
		return c.checkStmt(s.Body, rs)
	case *ast.ForStmt:
		if r := c.checkStmt(s.Init, rs); r != "" {
			return r
		}
		if s.Cond != nil && !c.pureExpr(s.Cond) {
			return "nested loop condition calls a function with unknown effects"
		}
		if r := c.checkStmt(s.Post, rs); r != "" {
			return r
		}
		return c.checkStmt(s.Body, rs)
	case *ast.ReturnStmt:
		return "return inside the range makes the result depend on which key is visited first"
	default:
		return "statement with order-dependent effects"
	}
}

// checkAssign decides whether one assignment inside the range body is
// order-insensitive.
func (c *mapIterChecker) checkAssign(s *ast.AssignStmt, rs *ast.RangeStmt) string {
	for _, rhs := range s.Rhs {
		if !c.pureExpr(rhs) && !isAppendCall(rhs) {
			return "assignment value calls a function with unknown effects"
		}
	}
	switch s.Tok {
	case token.DEFINE:
		return "" // all LHS are fresh loop-local variables
	case token.ASSIGN:
		for i, lhs := range s.Lhs {
			// s = append(s, ...) on an outer slice is the collect idiom —
			// allowed iff the slice is sorted before first use after the
			// loop.
			if i < len(s.Rhs) {
				if call, ok := ast.Unparen(s.Rhs[i]).(*ast.CallExpr); ok && isAppendCall(call) {
					if obj := usedObj(c.pass.TypesInfo, lhs); obj != nil && !declaredWithin(obj, rs) {
						if c.sortedBeforeUse(obj, rs) {
							continue
						}
						return "keys are collected but not sorted before first use after the loop"
					}
				}
			}
			if !c.allowedTarget(lhs, rs) {
				return "assignment to an outer variable is last-writer-wins under random key order"
			}
		}
		return ""
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		lhs := s.Lhs[0]
		if c.allowedTarget(lhs, rs) {
			return ""
		}
		if isInteger(c.pass.TypesInfo.TypeOf(lhs)) {
			return "" // exact commutative update: visit order cannot change the total
		}
		if isFloat(c.pass.TypesInfo.TypeOf(lhs)) {
			return "float accumulation in map order — the PR 3 bug class: low-order bits differ run to run"
		}
		return "compound assignment to an outer non-integer variable"
	default:
		return "compound assignment with order-dependent semantics"
	}
}

// allowedTarget reports whether writing to e cannot observe iteration
// order: blank, a variable local to the loop body, or a map element (each
// key is written independently; for range-key-indexed writes the cells are
// disjoint).
func (c *mapIterChecker) allowedTarget(e ast.Expr, rs *ast.RangeStmt) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return true
		}
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[e]
		}
		return declaredWithin(obj, rs)
	case *ast.IndexExpr:
		return isMapType(c.pass.TypesInfo.TypeOf(e.X))
	}
	return false
}

// pureExpr conservatively reports whether evaluating e has no effects: no
// calls except len/cap/min/max and type conversions.
func (c *mapIterChecker) pureExpr(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent {
			switch id.Name {
			case "len", "cap", "min", "max":
				if isBuiltin(c.pass.TypesInfo, id) {
					return true
				}
			}
		}
		// A type conversion is effect-free.
		if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return true
		}
		pure = false
		return false
	})
	return pure
}

func isAppendCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}

// sortedBeforeUse climbs from the range statement through its enclosing
// blocks and checks that the first statement mentioning obj after the loop
// passes it to a sort (sort.* or slices.Sort*). No further use at all also
// passes — an unconsumed collection cannot observe order.
func (c *mapIterChecker) sortedBeforeUse(obj types.Object, rs *ast.RangeStmt) bool {
	var node ast.Node = rs
	for {
		parent := c.parents[node]
		if parent == nil {
			return true
		}
		if block, ok := parent.(*ast.BlockStmt); ok {
			after := false
			for _, st := range block.List {
				if !after {
					if st == node {
						after = true
					}
					continue
				}
				if usesObject(c.pass.TypesInfo, st, obj) {
					return isSortOf(c.pass.TypesInfo, st, obj)
				}
			}
		}
		if _, ok := parent.(*ast.FuncDecl); ok {
			return true
		}
		if _, ok := parent.(*ast.FuncLit); ok {
			return true
		}
		node = parent
	}
}

func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

// isSortOf reports whether stmt is `sort.X(obj...)` / `slices.SortX(obj...)`
// (possibly `obj = slices.Sort...`), i.e. the collected keys are ordered
// before anything can observe them.
func isSortOf(info *types.Info, stmt ast.Stmt, obj types.Object) bool {
	var call *ast.CallExpr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, _ = ast.Unparen(s.X).(*ast.CallExpr)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			call, _ = ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		}
	}
	if call == nil {
		return false
	}
	pkg, name := calledPkgLevel(info, call)
	sortFn := pkg == "sort" || (pkg == "slices" && hasSortPrefix(name))
	if !sortFn {
		return false
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
			return true
		}
	}
	return false
}

func hasSortPrefix(name string) bool {
	return len(name) >= 4 && name[:4] == "Sort"
}
