#!/usr/bin/env bash
# check-run-patterns.sh fails when a test pattern in a workflow names nothing:
# each |-separated alternative of a step's single-quoted `go test -run` or
# `-bench` pattern must match a test (or benchmark) that `go test -list` finds
# in that step's packages, built with that step's -tags, and each
# `fuzz <package> <target>` line must name a fuzz target of its package.
# Every Fuzz function in the module must be on a fuzz line. A renamed or
# deleted test then fails this check instead of silently emptying the step.
# `-run '^$'` (run no tests) is skipped.
#
# Usage: .github/check-run-patterns.sh [workflow.yml]
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
fail=0

# check FLAG KIND PATTERN CMD: every alternative of PATTERN matches a name
# starting with KIND (a regexp alternation) that CMD's packages declare.
check() {
	local flag=$1 kind=$2 pat=$3 cmd=$4 tags pkgs names alts alt
	[ "$pat" = '^$' ] && return
	tags=$(grep -oE -- '-tags [a-z,]+' <<<"$cmd" || true)
	pkgs=$(grep -oE '\./[^ ]+' <<<"$cmd" | tr '\n' ' ')
	# shellcheck disable=SC2086 # tags and pkgs are word lists
	names=$(go test $tags -list . $pkgs | grep -E "^($kind)" || true)
	IFS='|' read -ra alts <<<"$pat"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "$wf: $flag alternative '$alt' matches nothing in $pkgs${tags:+($tags)}" >&2
			fail=1
		fi
	done
}

for flag in run bench; do
	kind='Test|Fuzz|Example'
	[ $flag = bench ] && kind=Benchmark
	while IFS= read -r cmd; do
		check "-$flag" "$kind" "$(sed -E "s/.*-$flag[= ]'([^']*)'.*/\1/" <<<"$cmd")" "$cmd"
	done < <(grep -oE "go test [^&;]*-$flag[= ]'[^']*'[^'&;]*" "$wf")
done

fuzzed=$(grep -oE '^ *fuzz \./[^ ]+ Fuzz[A-Za-z0-9_]+$' "$wf" | sed -E 's/^ *fuzz //' || true)
while read -r pkg target; do
	[ -n "$pkg" ] && check -fuzz Fuzz "^$target\$" "$pkg"
done <<<"$fuzzed"
for f in $(grep -rhoE --include='*_test.go' '^func Fuzz[A-Za-z0-9_]+' . | sed 's/^func //' | sort -u); do
	if ! grep -qE " $f\$" <<<"$fuzzed"; then
		echo "$wf: $f is on no fuzz line" >&2
		fail=1
	fi
done
exit $fail
