package lint

// The fixture harness is the stdlib stand-in for analysistest: each fixture
// file under testdata/src/<analyzer>/ is type-checked against the real
// repo's export-data closure and run through one analyzer ungated; `want`
// comments are the golden expectations.
//
//	x := f()  // want `regexp`        – a diagnostic on this line matching regexp
//	// want@+2 `regexp`               – a diagnostic two lines below this comment
//
// Every want must be matched by a diagnostic and every diagnostic by a
// want; permitted fixtures simply carry no wants.

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	repoOnce   sync.Once
	repoPkgs   []*Package
	repoLookup *ExportLookup
	repoErr    error
)

// loadRepo lists, exports and type-checks the whole module once per test
// binary; the closure doubles as the import universe for fixtures.
func loadRepo(t *testing.T) ([]*Package, *ExportLookup) {
	t.Helper()
	repoOnce.Do(func() {
		root := filepath.Join("..", "..")
		if repoErr = readTree(root); repoErr == nil {
			repoPkgs, repoLookup, repoErr = load(root, "./...")
		}
	})
	if repoErr != nil {
		t.Fatalf("loading repo packages: %v", repoErr)
	}
	return repoPkgs, repoLookup
}

// readTree reads every directory `go list ./...` can find packages in. go
// test keys a cached pass on the files and directories this process opens,
// and the module's file list comes from the go list subprocess, which it
// does not see: without the reads, a new file or package holding a
// violation would leave `go test ./...` reporting the old pass.
func readTree(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		return nil
	})
}

type wantSpec struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("// want(?:@\\+(\\d+))? `([^`]+)`")

func parseWants(t *testing.T, pkg *Package) []*wantSpec {
	t.Helper()
	var wants []*wantSpec
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				if m[1] != "" {
					var off int
					fmt.Sscanf(m[1], "%d", &off)
					line += off
				}
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[2], err)
				}
				wants = append(wants, &wantSpec{line: line, re: re})
			}
		}
	}
	return wants
}

// checkFixture type-checks testdata/src/<dir>/<file> and runs analyzer a
// over it (ungated — fixtures live under synthetic import paths), comparing
// diagnostics against the file's want comments.
func checkFixture(t *testing.T, a *Analyzer, dir string, files ...string) {
	t.Helper()
	_, lookup := loadRepo(t)
	paths := make([]string, len(files))
	for i, f := range files {
		paths[i] = filepath.Join("testdata", "src", dir, f)
	}
	pkg, err := typecheckFiles("kflint/fixture/"+dir, paths, lookup)
	if err != nil {
		t.Fatalf("typechecking fixture: %v", err)
	}
	diags, err := runAnalyzers(pkg, []*Analyzer{a}, false)
	if err != nil {
		t.Fatalf("running kflint/%s: %v", a.Name, err)
	}
	wants := parseWants(t, pkg)

diags:
	for _, d := range diags {
		for _, w := range wants {
			if !w.matched && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				continue diags
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no diagnostic at line %d matching %q", dir, w.line, w.re)
		}
	}
}

func TestMapIterFixtures(t *testing.T) {
	checkFixture(t, MapIter, "mapiter", "flagged.go")
	checkFixture(t, MapIter, "mapiter", "permitted.go")
}

func TestFloatSumFixtures(t *testing.T) {
	checkFixture(t, FloatSum, "floatsum", "flagged.go")
	checkFixture(t, FloatSum, "floatsum", "permitted.go")
}

func TestScalarMathFixtures(t *testing.T) {
	checkFixture(t, ScalarMath, "scalarmath", "flagged.go")
	checkFixture(t, ScalarMath, "scalarmath", "permitted.go")
}

func TestFusedMathFixtures(t *testing.T) {
	checkFixture(t, FusedMath, "fusedmath", "flagged.go")
	checkFixture(t, FusedMath, "fusedmath", "permitted.go")
}

func TestTypedErrFixtures(t *testing.T) {
	checkFixture(t, TypedErr, "typederr", "flagged.go")
	checkFixture(t, TypedErr, "typederr", "permitted.go")
}

func TestAtomicWriteFixtures(t *testing.T) {
	checkFixture(t, AtomicWrite, "atomicwrite", "flagged.go")
	checkFixture(t, AtomicWrite, "atomicwrite", "permitted.go")
}

func TestSuppressionDirectives(t *testing.T) {
	checkFixture(t, MapIter, "suppress", "suppress.go")
}

// TestGating pins the package gates: the determinism analyzers must cover
// the compiled engines, the published-numbers layers and the synthesizers,
// typederr must be global, and none may fire on packages outside their
// contract.
func TestGating(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		pkg  string
		want bool
	}{
		{MapIter, "kfusion/internal/fusion", true},
		{MapIter, "kfusion/internal/exper", true},
		{MapIter, "kfusion/internal/web", true},
		{MapIter, "kfusion/internal/world", true},
		{MapIter, "kfusion/internal/server", false},
		{FloatSum, "kfusion/internal/csr", true},
		{FloatSum, "kfusion/internal/eval", false},
		{ScalarMath, "kfusion/internal/twolayer", true},
		{ScalarMath, "kfusion/internal/multitruth", true},
		{ScalarMath, "kfusion/internal/mathx", false},
		{FusedMath, "kfusion/internal/mathx", true},
		{FusedMath, "kfusion/internal/multitruth", true},
		{FusedMath, "kfusion/internal/extract", false},
		{TypedErr, "kfusion/cmd/kfuse", true},
		{AtomicWrite, "kfusion/internal/genstore", true},
		{AtomicWrite, "kfusion/internal/kfio", false},
	}
	for _, c := range cases {
		if got := Applies(c.a, c.pkg); got != c.want {
			t.Errorf("Applies(%s, %s) = %v, want %v", c.a.Name, c.pkg, got, c.want)
		}
	}
}
