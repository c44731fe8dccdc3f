#!/usr/bin/env bash
# check-doc-names.sh fails when a document names, in backticks, Go code that
# does not exist: a test, fuzz target or benchmark (`TestXxx`, `FuzzXxx`,
# `BenchmarkXxx`) no _test.go file declares, or `pkg.Ident` / `pkg.Type.Member`
# where pkg is one of the module's packages and the package declares no Ident
# (or no Type, or no Member). A rename or a deletion then fails here instead
# of leaving the docs naming code that is gone. File names (`wal.log`,
# `catalog.bess`) and dotted metric names (`wal.syncs_per_commit`) are not
# code and are skipped. A path into the tree (`internal/…`, `cmd/…`,
# `examples/…`) must exist; one that ends in `.Ident` (`internal/goleak.Group`)
# names a package directory and something that package declares.
#
# Usage: .github/check-doc-names.sh [doc.md ...]   (default: DESIGN.md README.md)
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- DESIGN.md README.md

declare -A pkgdir
while IFS= read -r d; do
	pkgdir[$(basename "$d")]=$d
done < <(find internal -type d ! -path '*/testdata*')

# declares DIR IDENT: some non-test file of the package in DIR declares IDENT
# at top level, as a method, or as a member of a type, const or var block.
declares() {
	local id=$2
	local files=("$1"/*.go)
	grep -qE "^func (\([^)]*\) )?$id[[(]|^(type|var|const) $id\b|^[[:space:]]+([A-Za-z_][A-Za-z0-9_]*, *)*$id( +[^ :]| *\(|,|$)" \
		$(printf '%s\n' "${files[@]}" | grep -v '_test\.go$')
}

fail=0 n=0
for doc in "$@"; do
	while IFS= read -r name; do
		case $name in
		Test* | Fuzz* | Benchmark*)
			n=$((n + 1))
			grep -rqE --include='*_test.go' "^func $name\(" . && continue
			;;
		*)
			IFS=. read -ra part <<<"$name"
			dir=${pkgdir[${part[0]}]:-}
			case ${part[-1]} in go | log | bess | gob | tmp | json | md | sh | yml) continue ;; esac
			[ -n "$dir" ] || continue
			n=$((n + 1))
			# pkg.Ident, or pkg.Type.Member: the type and the member.
			declares "$dir" "${part[1]}" && { [ ${#part[@]} -eq 2 ] || declares "$dir" "${part[2]}"; } && continue
			;;
		esac
		echo "$doc: \`$name\` names no declaration" >&2
		fail=1
	done < <(grep -oE '`([a-z][a-z0-9]*(\.[A-Za-z][A-Za-z0-9]*){1,2}|(Test|Fuzz|Benchmark)[A-Za-z0-9_]+)`' "$doc" | tr -d '`' | sort -u)
done
for doc in "$@"; do
	while IFS= read -r path; do
		n=$((n + 1))
		ident=
		if [[ $path =~ ^(.*[^.])\.([A-Z][A-Za-z0-9]*)$ ]]; then
			path=${BASH_REMATCH[1]} ident=${BASH_REMATCH[2]}
		fi
		if [ -n "$ident" ]; then
			[ -d "$path" ] && declares "$path" "$ident" && continue
		else
			[ -e "$path" ] && continue
		fi
		echo "$doc: \`$path${ident:+.$ident}\` names no file, directory or declaration" >&2
		fail=1
	done < <(grep -oE '`(internal|cmd|examples)/[^` ]*`' "$doc" | tr -d '`' | sort -u)
done
echo "$n names checked" >&2
exit $fail
