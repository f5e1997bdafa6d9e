package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// The loader turns `go list -deps -export -json` output into type-checked
// packages without golang.org/x/tools: target packages (the ones matching
// the requested patterns) are parsed from source and type-checked against
// the compiler export data `go list -export` produces for every dependency,
// which works offline and rides the normal build cache. Test files are not
// analyzed — the contracts guard shipped code, and fixtures exercising
// forbidden patterns live in tests by design.

// A Package is one type-checked target package ready for analysis.
type Package struct {
	Path      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// load runs `go list -deps -export -json patterns...` in dir and returns
// the matched (non-dependency) packages parsed and type-checked, sorted by
// import path, plus an export-data lookup covering the full dependency
// closure (reused by the fixture harness to type-check testdata against
// real repo packages).
func load(dir string, patterns ...string) ([]*Package, *ExportLookup, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	lookup := NewExportLookup()
	for _, lp := range listed {
		if lp.Export != "" {
			lookup.exports[lp.ImportPath] = lp.Export
		}
	}

	var pkgs []*Package
	for _, lp := range listed {
		if lp.DepOnly || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := typecheck(lp.ImportPath, lp.Dir, lp.GoFiles, lookup)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, lookup, nil
}

func goList(dir string, patterns ...string) ([]listedPkg, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var out []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// ExportLookup resolves import paths to gc export data files, the ones
// `go list -export` builds.
type ExportLookup struct {
	exports map[string]string
}

func NewExportLookup() *ExportLookup { return &ExportLookup{exports: map[string]string{}} }

func (l *ExportLookup) open(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// Importer returns a go/types importer reading from the lookup's export
// data. fset must be the FileSet positions will be decoded against.
func (l *ExportLookup) Importer(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "gc", l.open)
}

// typecheck parses files (basenames relative to dir) and type-checks them
// as package path against export data for every import.
func typecheck(path, dir string, files []string, lookup *ExportLookup) (*Package, error) {
	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", name, err)
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: lookup.Importer(fset)}
	tpkg, err := conf.Check(path, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %v", path, err)
	}
	return &Package{
		Path: path, Dir: dir,
		Fset: fset, Files: parsed,
		Types: tpkg, TypesInfo: info,
	}, nil
}

// typecheckFiles type-checks an explicit file list as one package — the
// fixture harness's entry point (files under testdata).
func typecheckFiles(path string, filenames []string, lookup *ExportLookup) (*Package, error) {
	if len(filenames) == 0 {
		return nil, fmt.Errorf("lint: no files for %s", path)
	}
	dir := filepath.Dir(filenames[0])
	base := make([]string, len(filenames))
	for i, f := range filenames {
		base[i] = filepath.Base(f)
	}
	return typecheck(path, dir, base, lookup)
}
