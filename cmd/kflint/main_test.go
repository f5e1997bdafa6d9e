package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestVettoolProtocol builds kflint and drives it through `go vet -vettool`,
// exercising the unitchecker handshake end to end: the -V=full version
// print, the single .cfg argument, the vetx facts stub, and export-data
// type-checking from go vet's PackageFile map. csr is gated by both
// determinism analyzers and clean by contract, so the run must succeed
// silently.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	bin := filepath.Join(t.TempDir(), "kflint")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "kfusion/internal/csr")
	vet.Dir = filepath.Join("..", "..")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=kflint: %v\n%s", err, out)
	}
}

// TestVetUnitSkipsOnlyTestFiles pins the test-variant unit: go vet hands a
// package with in-package tests to the tool only with its _test.go files
// added, so the unit must still analyze the non-test files.
func TestVetUnitSkipsOnlyTestFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	code := write("a.go", "package a\n\n//lint:ignore kflint/nosuch a typo the unit must report\nfunc F() {}\n")
	test := write("a_test.go", "package a\n")
	cfg := write("vet.cfg", fmt.Sprintf(`{"ImportPath": "example.com/a", "GoFiles": [%q, %q]}`, code, test))
	if got := vetUnit(cfg); got != 2 {
		t.Errorf("vetUnit on a test variant = %d, want 2 (the non-test file's finding)", got)
	}
}
