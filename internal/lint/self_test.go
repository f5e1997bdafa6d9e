package lint

import "testing"

// TestRepoIsClean is the meta-test and the analyzers' one driver: it runs
// the gated analyzer suite over every non-test file of every package of the
// module, so a contract violation anywhere in the tree fails `go test ./...`
// the same way a broken unit test would; `make lint` runs it alone.
// Suppressions carry their reviewed reasons in-line; a malformed or stale
// suppression is a failure here too.
func TestRepoIsClean(t *testing.T) {
	pkgs, _ := loadRepo(t)
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	total := 0
	for _, pkg := range pkgs {
		diags, err := runAnalyzers(pkg, Analyzers(), true)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
			total++
		}
	}
	if total > 0 {
		t.Logf("%d finding(s): fix the site or add //lint:ignore kflint/<name> <reason> with a reviewable justification", total)
	}
}
