package lint

import (
	"go/ast"
)

// AtomicWrite guards the PR 6 durability protocol: everything the durable
// stores put on disk goes through an atomic temp+fsync+rename sequence,
// and — in genstore — through the faultfs.FS seam, so the crash-injection
// property suite can place a crash inside every I/O step and prove
// recovery. A direct os.Create/os.WriteFile/os.Rename in those packages
// is invisible to the crash model and can tear: a partially written file
// under the final name is exactly the corruption class the snapshot
// protocol exists to rule out.
//
// The analyzer flags direct calls to the os write-path functions inside
// the durable-store packages. Reads (os.ReadFile, os.Open) are untouched.
// Write through the faultfs.FS seam instead (or, outside a store that owns
// one, the kfio.AtomicWriteFile helper); a call site that is genuinely
// outside the durability contract suppresses with
// //lint:ignore kflint/atomicwrite <reason>.
var AtomicWrite = &Analyzer{
	Name: "atomicwrite",
	Doc:  "flags direct os write calls in the durable-store packages that bypass the temp+fsync+rename protocol and the faultfs seam",
	Packages: []string{
		"kfusion/internal/genstore",
	},
	Run: runAtomicWrite,
}

// osWritePath is the os surface that mutates the filesystem. Create and
// OpenFile tear on crash mid-write; Rename outside the protocol can
// publish a file that was never fsynced; WriteFile is both at once.
var osWritePath = map[string]bool{
	"Create":    true,
	"WriteFile": true,
	"Rename":    true,
	"OpenFile":  true,
	"NewFile":   true,
	"Truncate":  true,
	"Remove":    true,
	"RemoveAll": true,
}

func runAtomicWrite(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := calledPkgLevel(pass.TypesInfo, call)
			if pkg == "os" && osWritePath[name] {
				pass.Reportf(call.Pos(),
					"direct os.%s bypasses the atomic temp+fsync+rename protocol: a crash here tears durable state invisibly to the fault-injection suite; write through the faultfs.FS seam or kfio.AtomicWriteFile", name)
			}
			return true
		})
	}
	return nil
}
