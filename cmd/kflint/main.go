// Command kflint runs kfusion's contract analyzers (internal/lint) over Go
// packages — the determinism and durability invariants the test suite can
// only catch when a test happens to exercise a violation, checked
// structurally on every build.
//
// Two modes:
//
//	kflint ./...                      # multichecker: analyze packages
//	go vet -vettool=$(which kflint) ./...  # unitchecker: driven by go vet
//
// In multichecker mode kflint loads packages via `go list -export`,
// applies every analyzer to the packages it is gated to, prints surviving
// findings (suppressions need a //lint:ignore kflint/<name> <reason>
// directive with a written reason) and exits nonzero if any remain. In
// vettool mode it speaks go vet's config-file protocol: go vet hands it a
// JSON .cfg naming the files and the export data of every import, and
// kflint reports findings on stderr.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"kfusion/internal/lint"
)

func main() {
	// go vet probes its -vettool with -V=full before every run and keys
	// its result cache on the reply, so the reply carries a hash of this
	// executable: a rebuilt kflint must not reuse an older one's verdicts.
	versionFlag := flag.Bool("V", false, "print version and exit (go vet handshake)")
	list := flag.Bool("help-analyzers", false, "list analyzers and the contracts they enforce")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: kflint [packages]\n       go vet -vettool=kflint [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  kflint/%-12s %s\n", a.Name, a.Doc)
		}
	}
	// Accept -V=full (not just -V): rewrite it before flag parsing.
	args := os.Args[1:]
	for i, a := range args {
		if a == "-V=full" || a == "--V=full" {
			args[i] = "-V"
		}
		// go vet probes the tool's flag schema with -flags and expects a
		// JSON array of flag definitions; kflint exposes none to vet.
		if a == "-flags" || a == "--flags" {
			fmt.Println("[]")
			return
		}
	}
	flag.CommandLine.Parse(args)

	if *versionFlag {
		id, err := selfHash()
		if err != nil {
			fmt.Fprintln(os.Stderr, "kflint:", err)
			os.Exit(2)
		}
		fmt.Printf("kflint version devel buildID=%x\n", id)
		return
	}
	if *list {
		flag.Usage()
		return
	}

	rest := flag.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		os.Exit(vetUnit(rest[0]))
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}

	pkgs, _, err := lint.Load(".", rest...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kflint:", err)
		os.Exit(2)
	}
	found := false
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.Analyzers(), true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kflint:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			found = true
			fmt.Println(d)
		}
	}
	if found {
		os.Exit(1)
	}
}

// vetCfg is the subset of go vet's unitchecker config kflint needs: the
// package's own files, and export data + import-path remapping for every
// dependency.
type vetCfg struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetUnit runs one go vet unit of work. The protocol: read the JSON cfg,
// write the facts file go vet expects (kflint exchanges no facts, so it is
// a stub), report findings on stderr, exit 2 when findings exist.
func vetUnit(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kflint:", err)
		return 2
	}
	var cfg vetCfg
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "kflint: parsing vet config:", err)
		return 2
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("kflint\n"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "kflint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// go vet dispatches a package that has in-package tests only as its
	// test variant, whose file list adds the _test.go files. The contracts
	// guard shipped code only — fixtures exercising forbidden patterns live
	// in tests by design — so analyze the non-test files alone (matching
	// the multichecker, which loads GoFiles); an external test package
	// leaves none.
	var files []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return 0
	}

	lookup := lint.NewExportLookup()
	for importPath, canonical := range cfg.ImportMap {
		if file, ok := cfg.PackageFile[canonical]; ok {
			lookup.Add(importPath, file)
		}
	}
	for canonical, file := range cfg.PackageFile {
		lookup.Add(canonical, file)
	}

	pkg, err := lint.TypecheckFiles(cfg.ImportPath, files, lookup)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "kflint:", err)
		return 2
	}
	diags, err := lint.RunAnalyzers(pkg, lint.Analyzers(), true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kflint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [kflint/%s] %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// selfHash returns the SHA-256 of the running executable.
func selfHash() ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
}
