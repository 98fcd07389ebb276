#!/usr/bin/env bash
# Fails when a function is reached by no test. It runs every test with
# coverage across the module's packages and lists each function that
# `go tool cover -func` reports at 0.0%, except:
#   - functions with an empty body, which have no statement to cover;
#   - entry points on zero-coverage-allowlist.txt, which only cmd/,
#     examples/ or the benchmark module run.
# Usage, from the repository root: bash .github/zero-coverage.sh [PROFILE]
set -euo pipefail
profile="${1:-coverage.out}"
allow="$(dirname "$0")/zero-coverage-allowlist.txt"
mod="$(go list -m)"
go test -coverpkg=./internal/...,. -coverprofile="$profile" ./... >/dev/null
fail=0
while read -r loc fn; do
	file="${loc%%:*}"
	file="${file#"$mod"/}"
	line="${loc#*:}"
	line="${line%%:*}"
	if sed -n "${line}p" "$file" | grep -qE '\{[[:space:]]*\}[[:space:]]*$'; then
		continue
	fi
	if grep -v '^#' "$allow" | grep -qxF "$file $fn"; then
		continue
	fi
	echo "no test reaches $file:$line $fn"
	fail=1
done < <(go tool cover -func="$profile" | awk '$NF == "0.0%" { print $1, $2 }')
exit "$fail"
