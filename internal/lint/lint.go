// Package lint is kfusion's in-tree static-analysis suite: a small family
// of analyzers that machine-check the contracts the rest of the codebase
// rides on — deterministic iteration in the compiled engines (mapiter),
// fixed-shape float reductions (floatsum), batched transcendentals in the
// EM hot loops (scalarmath), wrap-safe sentinel-error handling (typederr),
// and atomic durable writes (atomicwrite). The
// analyzers run on every build via `make lint` / `cmd/kflint` and inside
// `go test ./...` through the self-test, so a contract violation fails the
// tree the same way a broken unit test does.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built on the standard library alone —
// go/ast, go/types, and export data produced by `go list -export` — because
// the module vendors nothing. If the repo ever grows an x/tools dependency,
// each analyzer's Run is written so it can be lifted onto analysis.Pass
// mechanically.
//
// # Suppression
//
// A finding is suppressed by a directive comment on the flagged line or the
// line above it:
//
//	//lint:ignore kflint/<analyzer> <reason>
//
// The reason text is mandatory — a directive without one is itself a
// diagnostic, and so is a directive that suppresses no finding of an
// analyzer that ran on its package (a stale suppression). Suppressions are
// for sites where the flagged pattern is the contract (a reference engine
// whose global left-to-right sum IS the spec, the in-block summation
// primitive the block reduction is built from), never for convenience; the
// reason is reviewed like code.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. Name is the bare analyzer
// name; diagnostics and suppression directives refer to it as
// "kflint/<name>".
type Analyzer struct {
	Name string
	// Doc is the one-paragraph contract statement shown by `kflint -help`.
	Doc string
	// Packages lists the import paths the analyzer is gated to when run by
	// the driver or the repo self-test (empty = every package). The fixture
	// harness bypasses the gate: fixtures live under synthetic paths.
	Packages []string
	Run      func(*Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string // bare analyzer name
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [kflint/%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapIter, FloatSum, ScalarMath, TypedErr, AtomicWrite}
}

// Applies reports whether a is gated onto the package with import path
// pkgPath when run by the driver/self-test.
func Applies(a *Analyzer, pkgPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// ---- Suppression directives ----

// IgnorePrefix is the directive comment prefix.
const IgnorePrefix = "//lint:ignore "

type directive struct {
	analyzer string // bare analyzer name, "" if malformed
	reason   string
	pos      token.Position
	used     bool
}

// directivesByLine scans a file's comments for //lint:ignore kflint/<name>
// directives and indexes them by the line they are written on. Malformed
// directives (missing kflint/ target or missing reason) are returned
// separately so the runner can report them.
func directivesByLine(fset *token.FileSet, file *ast.File) (byLine map[int][]*directive, malformed []Diagnostic) {
	byLine = map[int][]*directive{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, IgnorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(text, IgnorePrefix))
			target, reason, _ := strings.Cut(rest, " ")
			name, ok := strings.CutPrefix(target, "kflint/")
			if !ok {
				// Some other tool's lint:ignore (e.g. staticcheck checks);
				// not ours to police.
				continue
			}
			if !knownAnalyzer(name) {
				malformed = append(malformed, Diagnostic{
					Analyzer: name, Pos: pos,
					Message: fmt.Sprintf("//lint:ignore names unknown analyzer kflint/%s", name),
				})
				continue
			}
			if strings.TrimSpace(reason) == "" {
				malformed = append(malformed, Diagnostic{
					Analyzer: name, Pos: pos,
					Message: fmt.Sprintf("//lint:ignore kflint/%s requires a reason: justify why the contract does not apply here", name),
				})
				continue
			}
			byLine[pos.Line] = append(byLine[pos.Line], &directive{
				analyzer: name, reason: strings.TrimSpace(reason), pos: pos,
			})
		}
	}
	return byLine, malformed
}

func knownAnalyzer(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// RunAnalyzers runs every analyzer in as (gated by Applies when gate is
// true) over pkg and returns the surviving diagnostics: findings with a
// well-formed same-line or preceding-line suppression directive are
// dropped, and malformed directives — and well-formed ones naming an
// analyzer that ran but suppressing none of its findings — are reported as
// findings in their own right. The result is sorted by position.
func RunAnalyzers(pkg *Package, as []*Analyzer, gate bool) ([]Diagnostic, error) {
	byLine := map[int][]*directive{}
	var out []Diagnostic
	for _, f := range pkg.Files {
		m, malformed := directivesByLine(pkg.Fset, f)
		for line, ds := range m {
			byLine[line] = append(byLine[line], ds...)
		}
		out = append(out, malformed...)
	}

	ran := map[string]bool{}
	for _, a := range as {
		if gate && !Applies(a, pkg.Path) {
			continue
		}
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("kflint/%s on %s: %w", a.Name, pkg.Path, err)
		}
	diags:
		for _, d := range pass.diags {
			for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
				for _, dir := range byLine[line] {
					if dir.analyzer == a.Name && samePosFile(dir.pos, d.Pos) {
						dir.used = true
						continue diags
					}
				}
			}
			out = append(out, d)
		}
	}
	for _, ds := range byLine {
		for _, dir := range ds {
			if ran[dir.analyzer] && !dir.used {
				out = append(out, Diagnostic{
					Analyzer: dir.analyzer, Pos: dir.pos,
					Message: fmt.Sprintf("//lint:ignore kflint/%s suppresses nothing: remove it", dir.analyzer),
				})
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out, nil
}

func samePosFile(a token.Position, b token.Position) bool {
	return a.Filename == b.Filename
}
