#!/usr/bin/env bash
# Prints the size of the production code: the non-test lines under
# crates/*/src (the compat shims excluded) and the `pub fn` lines among
# them. A file's non-test lines are the lines above its first column-0
# `#[cfg(test)]` (the whole file when it has none). Run from anywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

nontest_lines() {
  find crates -path crates/compat -prune -o -path '*/src/*' -name '*.rs' -print |
    LC_ALL=C sort |
    while IFS= read -r f; do
      awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f"
    done
}

printf 'non-test lines: %s\n' "$(nontest_lines | wc -l)"
printf 'pub fn lines:   %s\n' "$(nontest_lines | grep -cE '^[[:space:]]*pub fn ')"
