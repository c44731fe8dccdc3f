#!/usr/bin/env bash
# check-run-patterns.sh fails when a `go test -run` pattern in a workflow
# names no test: each |-separated alternative of a step's pattern must match
# a test that `go test -list` finds in that step's packages, built with that
# step's -tags. A renamed or deleted test then fails this check instead of
# silently emptying the step. `-run '^$'` (run no tests) is skipped.
#
# Usage: .github/check-run-patterns.sh [workflow.yml]
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
fail=0
while IFS= read -r cmd; do
	pat=$(sed -E "s/.*-run[= ]'([^']*)'.*/\1/" <<<"$cmd")
	[ "$pat" = '^$' ] && continue
	tags=$(grep -oE -- '-tags [a-z,]+' <<<"$cmd" || true)
	pkgs=$(grep -oE '\./[^ ]+' <<<"$cmd" | tr '\n' ' ')
	# shellcheck disable=SC2086 # tags and pkgs are word lists
	tests=$(go test $tags -list . $pkgs | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	IFS='|' read -ra alts <<<"$pat"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$tests"; then
			echo "$wf: -run alternative '$alt' matches no test in $pkgs${tags:+($tags)}" >&2
			fail=1
		fi
	done
done < <(grep -oE "go test [^'&;]*-run[= ]'[^']*'[^'&;]*" "$wf")
exit $fail
