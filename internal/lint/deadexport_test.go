package lint

import (
	"go/token"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unreadExports lists the exported package-level names of internal/ packages
// that no product file reads — no non-test file of the module outside
// benchmark/ — each with the reason it stays. Names are written as
// "<path below internal/>.<name>".
var unreadExports = map[string]string{
	// Test oracles and helpers, which tests read.
	"extract.PatNone":            "the zero value of the Pattern iota enumeration",
	"faultfs.NewFaulty":          "test helper: the fault-injecting file system of the crash suites",
	"fusion.FuseReference":       "test oracle: the seed engine the equivalence suites hold Fuse to",
	"fusion.MustFuse":            "test helper: Fuse that panics on a config error",
	"multitruth.MustFuse":        "test helper: Fuse that panics on a config error",
	"twolayer.CloseToReference":  "test oracle: the tolerance check against MustFuseReference",
	"twolayer.MustFuse":          "test helper: Fuse that panics on a config error",
	"twolayer.MustFuseReference": "test oracle: the reference engine the equivalence suites hold Fuse to",

	// Read only by the end-to-end harness under benchmark/.
	"exper.SegmentExtractions": "ROADMAP item 21 deletes it with the harness's direct calls",
	"fusion.NewClaimStream":    "ROADMAP item 21 deletes it with the harness's direct calls",
	"fusion.SeedClaimStream":   "ROADMAP item 21 deletes it with the harness's direct calls",
	"kfio.ReadFused":           "ROADMAP item 21 deletes it with the harness's direct calls",
	"twolayer.NewRun":          "ROADMAP item 21 deletes it with the harness's direct calls",
}

// TestNoDeadExports fails on an exported package-level name of an internal/
// package that no product file reads, its own package's files included,
// unless unreadExports lists it. A listed name that is gone or that product
// code now reads is a stale entry and fails too, the way a stale
// //lint:ignore does. Methods and fields are out of scope.
func TestNoDeadExports(t *testing.T) {
	pkgs, _ := loadRepo(t)
	unlisted, stale := checkExports(pkgs, unreadExports)
	for _, name := range unlisted {
		t.Errorf("%s: no product file reads it: delete it, unexport it, or list it in unreadExports with a reason", name)
	}
	for _, name := range stale {
		t.Errorf("unreadExports lists %s, which is gone or read by product code: remove the entry", name)
	}
}

// TestDeadExportsFindsPlanted is the check's mutation test: over the module
// plus a fixture package with one planted unread export, it reports exactly
// that name, and with two planted allowlist entries — one for a name product
// code reads, one for a name that does not exist — exactly those as stale.
func TestDeadExportsFindsPlanted(t *testing.T) {
	pkgs, lookup := loadRepo(t)
	fixture, err := typecheckFiles("kfusion/internal/lint/testdata/src/deadexport",
		[]string{filepath.Join("testdata", "src", "deadexport", "deadexport.go")}, lookup)
	if err != nil {
		t.Fatalf("typechecking fixture: %v", err)
	}
	allow := maps.Clone(unreadExports)
	allow["fusion.Compile"] = "planted: read by product code"
	allow["fusion.NoSuchName"] = "planted: gone"
	unlisted, stale := checkExports(append(slices.Clip(pkgs), fixture), allow)
	if want := []string{"lint/testdata/src/deadexport.Unread"}; !slices.Equal(unlisted, want) {
		t.Errorf("unlisted %q, want %q", unlisted, want)
	}
	if want := []string{"fusion.Compile", "fusion.NoSuchName"}; !slices.Equal(stale, want) {
		t.Errorf("stale %q, want %q", stale, want)
	}
}

// checkExports returns, sorted, the unread exports of pkgs that allow does
// not list, and the entries of allow that name no unread export.
func checkExports(pkgs []*Package, allow map[string]string) (unlisted, stale []string) {
	const internal, harness = "kfusion/internal/", "kfusion/benchmark"
	read := map[string]bool{} // "<import path>.<name>" of every package-level object product code reads
	for _, pkg := range pkgs {
		if pkg.Path == harness || strings.HasPrefix(pkg.Path, harness+"/") {
			continue
		}
		for _, obj := range pkg.TypesInfo.Uses {
			if p := obj.Pkg(); p != nil && p.Scope().Lookup(obj.Name()) == obj {
				read[p.Path()+"."+obj.Name()] = true
			}
		}
	}
	dead := map[string]bool{}
	for _, pkg := range pkgs {
		rel, ok := strings.CutPrefix(pkg.Path, internal)
		if !ok {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			if token.IsExported(name) && !read[pkg.Path+"."+name] {
				dead[rel+"."+name] = true
				if _, listed := allow[rel+"."+name]; !listed {
					unlisted = append(unlisted, rel+"."+name)
				}
			}
		}
	}
	for name := range allow {
		if !dead[name] {
			stale = append(stale, name)
		}
	}
	slices.Sort(unlisted)
	slices.Sort(stale)
	return unlisted, stale
}
