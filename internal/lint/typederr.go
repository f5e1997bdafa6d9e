package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TypedErr guards the typed-error contracts: the durable stores report
// corruption through typed errors — the genstore sentinels ErrCorrupt and
// ErrVersion and kfio's *ErrPartialLine struct — and the
// kfserved HTTP boundary dispatches on the httpapi sentinels (ErrNotFound,
// ErrBadBatch, ErrNotReady, ErrBusy, ErrBadRequest, re-exported at the
// kfusion root). Every producer wraps them (`fmt.Errorf("%w: ...",
// ErrCorrupt)`; the HTTP client wraps via APIError.Unwrap), so a direct
// `==`/`!=` comparison or a type switch on the concrete type silently
// stops matching the moment a wrapping layer is added. Callers must use
// errors.Is for sentinels and errors.As for the structured types; the
// degradation ladder (snapshot fallback, journal tail repair, partial-line
// retry) and the server's error-to-status mapping dispatch on exactly
// these results, so a broken match turns a graceful degradation into a
// hard failure.
//
// The analyzer flags, in any package: ==/!= against an Err* sentinel
// variable exported by the durability packages (comparisons with nil are
// untouched), a switch on an error value whose cases name such sentinels,
// and type assertions or type-switch cases on the packages' Err* struct
// types.
var TypedErr = &Analyzer{
	Name: "typederr",
	Doc:  "flags ==/!= or type-switch use of the genstore/kfio/httpapi typed errors where errors.Is/errors.As is required",
	// Empty Packages: a wrap-unsafe comparison is wrong wherever it
	// appears — cmd/ drivers and the experiment layers consume these
	// errors too.
	Run: runTypedErr,
}

// sentinelPkgs are the packages whose Err* values/types carry the
// durability and serving contracts. httpapi holds the HTTP serving
// sentinels (ErrNotFound, ErrBadBatch, ErrNotReady, ErrBusy,
// ErrBadRequest), which the kfserved server and typed client wrap on both
// sides of the wire; the root kfusion package re-exports them, so the same
// values reached through either path are protected.
var sentinelPkgs = map[string]bool{
	"kfusion/internal/genstore": true,
	"kfusion/internal/kfio":     true,
	"kfusion/internal/faultfs":  true,
	"kfusion/internal/httpapi":  true,
	"kfusion":                   true,
}

func runTypedErr(pass *Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					if v, ok := sentinelVar(info, side); ok {
						pass.Reportf(n.OpPos,
							"%s compares the wrapped sentinel %s.%s by identity; use errors.Is — producers wrap it with fmt.Errorf(\"%%w: ...\")",
							n.Op, v.Pkg().Name(), v.Name())
						break
					}
				}
			case *ast.SwitchStmt:
				// switch err { case genstore.ErrCorrupt: ... } compares by
				// identity exactly like ==.
				if n.Tag == nil || !isErrorType(info.TypeOf(n.Tag)) {
					return true
				}
				for _, cs := range n.Body.List {
					cc := cs.(*ast.CaseClause)
					for _, e := range cc.List {
						if v, ok := sentinelVar(info, e); ok {
							pass.Reportf(cc.Case,
								"switch case compares the wrapped sentinel %s.%s by identity; use errors.Is in an if/else chain",
								v.Pkg().Name(), v.Name())
						}
					}
				}
			case *ast.TypeAssertExpr:
				if n.Type == nil {
					return true // the type-switch header; cases handled below
				}
				if tn, ok := sentinelType(info, n.Type); ok {
					pass.Reportf(n.Lparen,
						"type assertion to %s.%s misses wrapped instances; use errors.As",
						tn.Pkg().Name(), tn.Name())
				}
			case *ast.TypeSwitchStmt:
				for _, cs := range n.Body.List {
					cc := cs.(*ast.CaseClause)
					for _, e := range cc.List {
						if tn, ok := sentinelType(info, e); ok {
							pass.Reportf(cc.Case,
								"type switch case %s.%s misses wrapped instances; use errors.As",
								tn.Pkg().Name(), tn.Name())
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// sentinelVar reports whether e names a package-level Err* error variable
// from one of the durability packages.
func sentinelVar(info *types.Info, e ast.Expr) (*types.Var, bool) {
	obj := usedObj(info, e)
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !sentinelPkgs[v.Pkg().Path()] || !hasPrefixErr(v.Name()) {
		return nil, false
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil, false
	}
	if !isErrorType(v.Type()) {
		return nil, false
	}
	return v, true
}

// sentinelType reports whether the type expression e names (a pointer to)
// a typed-error struct declared in one of the contract packages — the Err*
// prefix convention of the durability packages, or the *Error suffix
// convention of the serving wire contract (httpapi.BadBatchError).
func sentinelType(info *types.Info, e ast.Expr) (*types.TypeName, bool) {
	t := info.TypeOf(e)
	if t == nil {
		return nil, false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	tn := named.Obj()
	if tn.Pkg() == nil || !sentinelPkgs[tn.Pkg().Path()] {
		return nil, false
	}
	if !hasPrefixErr(tn.Name()) && !strings.HasSuffix(tn.Name(), "Error") {
		return nil, false
	}
	return tn, true
}
