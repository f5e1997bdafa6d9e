#!/usr/bin/env bash
# check-docs.sh — resolve every package/symbol reference in the prose docs
# against the code with `go doc`, so renames cannot silently strand the
# documentation. CI runs this on every push (docs job; `make docs-check`).
#
# A "reference" is any backticked token in README.md, docs/*.md or the
# verify skill (.claude/skills/verify/SKILL.md) that looks like either a
# package path (internal/shard, cmd/kfuse, optionally prefixed kfusion/) or a
# qualified symbol (fusion.Compile, kb.DataItem.Hash). Each must resolve with
# `go doc`, except a test, fuzz target or benchmark (shard.TestX, pkg.FuzzX,
# pkg.BenchmarkX), which `go doc` does not list: that one must be declared
# (`func TestX(`) in a _test.go file of a package with that name or
# directory name. The gate fails on any dangling reference, and refuses to
# pass vacuously if extraction finds no references at all.
set -u
cd "$(dirname "$0")/.."

files=(README.md docs/*.md .claude/skills/verify/SKILL.md)
refs=$(grep -hoE '`[^` ]+`' "${files[@]}" |
	tr -d '`' |
	grep -E '^((kfusion/)?(internal|cmd)/[a-z0-9/]+|[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*(\.[A-Za-z0-9_]+)?)$' |
	sort -u)

if [ -z "$refs" ]; then
	echo "check-docs: extracted no references from ${files[*]} — the gate would be a no-op" >&2
	exit 1
fi

# "name dir" per package, for resolving test references.
pkgs=$(go list -f '{{.Name}} {{.Dir}}' ./...)

# test_declared PKG FUNC reports whether FUNC is declared in a _test.go file
# of a package named PKG or living in a directory named PKG.
test_declared() {
	local name dir
	while read -r name dir; do
		if [ "$name" = "$1" ] || [ "$(basename "$dir")" = "$1" ]; then
			if grep -qsE "^func $2\(" "$dir"/*_test.go; then
				return 0
			fi
		fi
	done <<<"$pkgs"
	return 1
}

fail=0
total=0
for ref in $refs; do
	total=$((total + 1))
	if [[ $ref =~ ^([a-z][a-z0-9]*)\.((Test|Fuzz|Benchmark)[A-Za-z0-9_]*)$ ]]; then
		if ! test_declared "${BASH_REMATCH[1]}" "${BASH_REMATCH[2]}"; then
			echo "check-docs: dangling test reference: $ref" >&2
			fail=1
		fi
	elif ! go doc "$ref" >/dev/null 2>&1; then
		echo "check-docs: dangling reference: $ref" >&2
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "check-docs: FAILED (see dangling references above, $total checked)" >&2
	exit 1
fi
echo "check-docs: $total references resolve"
