#!/usr/bin/env bash
# check-fuzz-smoke.sh — fail when a fuzz target has no `make fuzz-smoke` line,
# so a new target cannot silently stay out of CI. `make fuzz-smoke` runs this
# first.
#
# A target is any `func FuzzName(` in a _test.go file; its line is a recipe
# line of the fuzz-smoke rule holding `-fuzz FuzzName ` and ending in the
# target's package directory (`./internal/kb/`). The gate refuses to pass
# vacuously if it finds no targets at all.
set -u
cd "$(dirname "$0")/.."

recipe=$(awk '/^fuzz-smoke:/ { on = 1; next } on && /^\t/ { print; next } { on = 0 }' Makefile)
targets=$(grep -rHoE --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*\(' . | sed -E 's|^(.*)/[^/]*:func (Fuzz[A-Za-z0-9_]*)\($|\1 \2|')

if [ -z "$targets" ]; then
	echo "check-fuzz-smoke: found no fuzz targets — the gate would be a no-op" >&2
	exit 1
fi

fail=0
total=0
while read -r dir name; do
	total=$((total + 1))
	if ! grep -qE -- "-fuzz $name .* $dir/?\$" <<<"$recipe"; then
		echo "check-fuzz-smoke: $name in $dir/ has no fuzz-smoke line in the Makefile" >&2
		fail=1
	fi
done <<<"$targets"

if [ "$fail" -ne 0 ]; then
	echo "check-fuzz-smoke: FAILED ($total targets checked)" >&2
	exit 1
fi
echo "check-fuzz-smoke: all $total fuzz targets have a fuzz-smoke line"
