#!/usr/bin/env bash
# Lists every library `pub fn` that no compiled target needs public. The
# compiler decides, not a grep: on a copy of the tree, every `pub fn` in
# library code (crates/*/src and src/, without the bins under
# crates/bench/src/bin and without anything after a file's first
# `#[cfg(test)]`) becomes `pub(crate) fn`, and
# `cargo check --workspace --all-targets` runs until it passes. Each round
# gives `pub` back to every function an error names:
#   - E0603 / E0624 (private function / method): the definition's span;
#   - E0364 (`pub use` of a crate-private item): the name, within that crate.
# What is still `pub(crate)` at the end is surface that no other crate, bin,
# example, bench or integration test calls. The script prints one
# `file:line name` line for each such function not on the keep-list below,
# and nothing when the surface is clean. It exits 2 if a round fails with
# errors it cannot map to a function.
#
# The copy and its build live under target/uncalled_pub/, which git ignores.
# Needs cargo and jq.
#
# Usage: scripts/uncalled_pub.sh
# Run from the repository root (or anywhere inside it).

set -euo pipefail
cd "$(dirname "$0")/.."

# `path name reason`: public although no compiled target outside the crate
# calls it
keep_list() {
  cat <<'EOF'
crates/autograd/src/params.rs is_empty clippy::len_without_is_empty: ParamStore::len is public
crates/autograd/src/tape.rs is_empty clippy::len_without_is_empty: Tape::len is public
crates/autograd/src/tensor.rs is_empty clippy::len_without_is_empty: Tensor::len is public
crates/core/src/encode.rs is_empty clippy::len_without_is_empty: RelationTable::len is public
crates/kg/src/interner.rs is_empty clippy::len_without_is_empty: Interner::len is public
crates/subgraph/src/cache.rs is_empty clippy::len_without_is_empty: LruCache::len is public
EOF
}

work="$PWD/target/uncalled_pub"
tree="$work/tree"
rm -rf "$tree"
mkdir -p "$tree"
git ls-files -z -co --exclude-standard |
  while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
  tar --null -T - -cf - | tar -xf - -C "$tree"
cd "$tree"

# demote, recording `file<TAB>line<TAB>name` for each function
demoted="$work/demoted.tsv"
: >"$demoted"
while IFS= read -r -d '' f; do
  awk -v f="$f" -v list="$demoted" '
    /#\[cfg\(test\)\]/ { t = 1 }
    !t && /^[[:space:]]*pub fn / {
      sub(/pub fn /, "pub(crate) fn ")
      name = $0
      sub(/.*pub\(crate\) fn /, "", name)
      sub(/[^A-Za-z0-9_].*/, "", name)
      print f "\t" FNR "\t" name >>list
    }
    { print }' "$f" >"$f.tmp"
  mv "$f.tmp" "$f"
done < <(find crates/*/src src -name '*.rs' -not -path 'crates/bench/src/bin/*' -print0 | sort -z)

json="$work/check.json"
while :; do
  status=0
  CARGO_TARGET_DIR="$work/target" cargo check --workspace --all-targets --offline \
    --keep-going --message-format=json >"$json" 2>"$work/check.err" || status=$?
  errors="$(jq -r 'select(.reason == "compiler-message" and .message.level == "error")
    | .message as $m
    | if $m.code.code == "E0603" or $m.code.code == "E0624" then
        ($m.spans[], $m.children[].spans[])
        | "span\t\(.file_name)\t\(.line_start)\t\(.line_end)"
      elif $m.code.code == "E0364" then
        "name\t\($m.spans[0].file_name)\t\($m.message | capture("^`(?<n>[A-Za-z0-9_]+)`").n)"
      else "other" end' "$json")"
  if [ -z "$errors" ]; then
    [ "$status" -eq 0 ] && break
    echo "uncalled_pub.sh: cargo check failed:" >&2
    cat "$work/check.err" >&2
    exit 2
  fi

  # the demoted functions the errors name
  restore="$(awk -F'\t' '
    FILENAME == "-" {
      if ($1 == "span") { n++; sf[n] = $2; lo[n] = $3; hi[n] = $4 }
      if ($1 == "name") { c = $2; sub(/\/src\/.*/, "/src/", c); sub(/^src\/.*/, "src/", c); byname[c, $3] = 1 }
      next
    }
    {
      c = $1; sub(/\/src\/.*/, "/src/", c); sub(/^src\/.*/, "src/", c)
      hit = byname[c, $3]
      for (i = 1; i <= n && !hit; i++) hit = sf[i] == $1 && lo[i] <= $2 && $2 <= hi[i]
      if (hit) print $1 "\t" $2
    }' - "$demoted" <<<"$errors")"
  if [ -z "$restore" ]; then
    echo "uncalled_pub.sh: cargo check fails with errors no demoted function explains:" >&2
    jq -r 'select(.reason == "compiler-message" and .message.level == "error")
      | .message.rendered' "$json" >&2
    exit 2
  fi
  while IFS=$'\t' read -r f line; do
    sed -i "${line}s/pub(crate) fn /pub fn /" "$f"
  done <<<"$restore"
  awk -F'\t' 'NR == FNR { r[$1 "\t" $2] = 1; next } !r[$1 "\t" $2]' \
    <(printf '%s\n' "$restore") "$demoted" >"$demoted.tmp"
  mv "$demoted.tmp" "$demoted"
done

awk -F'\t' '
  FILENAME == ARGV[1] { keep[$1 "\t" $2] = 1; next }
  !keep[$1 "\t" $3] { print $1 ":" $2 " " $3 }' \
  <(keep_list | awk '{ print $1 "\t" $2 }') "$demoted"
