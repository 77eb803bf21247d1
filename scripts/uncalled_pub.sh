#!/usr/bin/env bash
# Lists every library `pub fn` whose name appears, as a whole word, in no
# other `.rs` file under crates/, src/, tests/ or examples/. Prints one
# `file: name` line per suspect and nothing when the surface is clean.
#
# Library code is crates/*/src and src/; the bins under crates/bench/src/bin
# are callers, not surface. A grep cannot see a name that collides with other
# words (a `pub fn mode` hides behind every other `mode`), so an empty output
# is a floor, not a proof: the full audit is to make a function private and
# let `cargo clippy --workspace --all-targets -- -D warnings` decide.
#
# Usage: scripts/uncalled_pub.sh
# Run from the repository root (or anywhere inside it).

set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t all_rs < <(find crates src tests examples -name '*.rs' -not -path '*/target/*' | sort)

for file in "${all_rs[@]}"; do
  [[ "$file" =~ ^(crates/[^/]+/src|src)/ && "$file" != crates/bench/src/bin/* ]] || continue
  others=()
  for f in "${all_rs[@]}"; do [ "$f" = "$file" ] || others+=("$f"); done
  for name in $(sed -nE 's/^[[:space:]]*pub fn ([A-Za-z_][A-Za-z0-9_]*).*/\1/p' "$file" | sort -u); do
    grep -q -w -- "$name" "${others[@]}" || echo "$file: $name"
  done
done
