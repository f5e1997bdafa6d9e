package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Shared AST/type-resolution helpers for the analyzers.

// parentMap records the immediate parent of every node in a file, so
// analyzers can climb from a flagged node to its enclosing block.
type parentMap map[ast.Node]ast.Node

func buildParents(file *ast.File) parentMap {
	parents := parentMap{}
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// usedObj resolves an expression to the object it names, through parens:
// `ident` or `pkg.Ident`. Returns nil for anything else.
func usedObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// calledPkgLevel returns (package path, func name) when call invokes a
// package-level function, else ("", "").
func calledPkgLevel(info *types.Info, call *ast.CallExpr) (string, string) {
	obj := usedObj(info, call.Fun)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isSliceOrArray reports whether t is (or points to) a slice or array.
func isSliceOrArray(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	}
	return false
}

// isFloat reports whether t is a floating-point scalar.
func isFloat(t types.Type) bool {
	b, ok := t.(*types.Basic)
	if !ok {
		if n, isNamed := t.(*types.Named); isNamed {
			b, ok = n.Underlying().(*types.Basic)
		}
	}
	return ok && b.Info()&types.IsFloat != 0
}

// isInteger reports whether t is an integer scalar.
func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isErrorType reports whether t is the error interface or implements it.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
		return true
	}
	if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() == 1 {
		m := iface.Method(0)
		if m.Name() == "Error" {
			sig := m.Type().(*types.Signature)
			return sig.Params().Len() == 0 && sig.Results().Len() == 1
		}
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos &&
		obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// hasPrefixErr reports the Err* naming convention the sentinel contracts
// use.
func hasPrefixErr(name string) bool { return strings.HasPrefix(name, "Err") }

// isBuiltin reports whether id names the predeclared builtin (not a
// shadowing declaration): the type checker records builtins as
// *types.Builtin in Uses.
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	obj := info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}
