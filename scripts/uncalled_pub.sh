#!/usr/bin/env bash
# Lists every public item of library code that no compiled target needs
# public. The compiler decides, not a grep: on a copy of the tree, every
# `pub fn|struct|enum|trait|type|const|static|mod` and every named `pub`
# field in library code (crates/*/src and src/, without the bins under
# crates/bench/src/bin and without anything after a file's first
# `#[cfg(test)]`) becomes `pub(crate)`, and
# `cargo check --workspace --all-targets` runs until it passes. Each round
# gives `pub` back to every item a diagnostic names:
#   - E0603 / E0624 (private item / method): the definition's span;
#   - E0616 / E0451 (private field, read or in a struct expression or
#     pattern): the struct's and the field's name;
#   - E0364 / E0365 (`pub use` of a crate-private item): the name, within
#     that crate;
#   - "type `…` is private" (a value of the type crosses the crate line; the
#     error has no code) and the `private_interfaces` / `private_bounds`
#     warnings (a public signature names the type, which `clippy -D
#     warnings` refuses): the type's name.
# What is still `pub(crate)` at the end is surface that no other crate, bin,
# example, bench or integration test needs. The script prints one
# `file:line kind name` line (`name` is `Struct::field` for a field) for each
# such item not on the keep-list below, and nothing when the surface is
# clean. It exits 2 if a round fails with errors it cannot map to an item.
#
# The copy and its build live under target/uncalled_pub/, which git ignores.
# Needs cargo and jq.
#
# Usage: scripts/uncalled_pub.sh
# Run from the repository root (or anywhere inside it).

set -euo pipefail
cd "$(dirname "$0")/.."

# `path name reason` (`name` as the output prints it, `Struct::field` for a
# field): public although no compiled target outside the crate needs it
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

# demote, recording `file<TAB>line<TAB>kind<TAB>name<TAB>struct` for each
# item (`struct` is the enclosing struct of a field, else empty)
demoted="$work/demoted.tsv"
: >"$demoted"
while IFS= read -r -d '' f; do
  awk -v f="$f" -v list="$demoted" '
    /#\[cfg\(test\)\]/ { t = 1 }
    !t && /^[[:space:]]*(pub(\([a-z]+\))? )?struct [A-Za-z_]/ {
      owner = $0
      sub(/^.*struct /, "", owner)
      sub(/[^A-Za-z0-9_].*/, "", owner)
    }
    !t && /^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod) [A-Za-z_]/ && !/^[[:space:]]*pub const fn / {
      kind = $0
      sub(/^[[:space:]]*pub /, "", kind)
      name = kind
      sub(/ .*/, "", kind)
      sub(/^[a-z]+ /, "", name)
      sub(/[^A-Za-z0-9_].*/, "", name)
      sub(/pub /, "pub(crate) ")
      print f "\t" FNR "\t" kind "\t" name "\t" >>list
    }
    !t && /^[[:space:]]*pub [a-z_][A-Za-z0-9_]*[[:space:]]*:/ {
      name = $0
      sub(/^[[:space:]]*pub /, "", name)
      sub(/[^A-Za-z0-9_].*/, "", name)
      sub(/pub /, "pub(crate) ")
      print f "\t" FNR "\tfield\t" name "\t" owner >>list
    }
    { print }' "$f" >"$f.tmp"
  mv "$f.tmp" "$f"
done < <(find crates/*/src src -name '*.rs' -not -path 'crates/bench/src/bin/*' -print0 | sort -z)

json="$work/check.json"
while :; do
  status=0
  CARGO_TARGET_DIR="$work/target" cargo check --workspace --all-targets --offline \
    --keep-going --message-format=json >"$json" 2>"$work/check.err" || status=$?
  # one line per diagnostic that names an item: `span file lo hi`,
  # `name file name`, `field struct field` or `type name`; `other` for an
  # error that names none
  named="$(jq -r 'def last_segment: sub("<.*"; "") | split("::") | last;
    select(.reason == "compiler-message") | .message as $m
    | ($m.code.code // "") as $c
    | [if $c == "E0603" or $c == "E0624" then
        ($m.spans[], $m.children[].spans[])
        | "span\t\(.file_name)\t\(.line_start)\t\(.line_end)"
      elif $c == "E0364" or $c == "E0365" then
        ($m.message | capture("^`(?<n>[A-Za-z0-9_]+)`"))
        | "name\t\($m.spans[0].file_name)\t\(.n)"
      elif $c == "E0616" or $c == "E0451" then
        ($m.message | capture("^fields? (?<f>.*) of [a-z ]+ `(?<s>[^`]+)` (is|are) private$"))
        | (.s | last_segment) as $s
        | .f | scan("`([A-Za-z0-9_]+)`") | "field\t\($s)\t\(.[0])"
      elif $c == "private_interfaces" or $c == "private_bounds" then
        ($m.message | capture("^[a-z ]+ `(?<t>[^`]+)`")) | "type\t\(.t | last_segment)"
      elif $m.level == "error" then
        ($m.message | capture("^[a-z ]+ `(?<t>[^`]+)` is private$")) | "type\t\(.t | last_segment)"
      else empty end]
    | if length == 0 and $m.level == "error" then "other" else .[] end' "$json")"
  if [ -z "$named" ]; then
    [ "$status" -eq 0 ] && break
    echo "uncalled_pub.sh: cargo check failed:" >&2
    cat "$work/check.err" >&2
    exit 2
  fi

  # the demoted items the diagnostics name, as `file<TAB>line`
  restore="$(awk -F'\t' '
    function crate(p) { sub(/\/src\/.*/, "/src/", p); sub(/^src\/.*/, "src/", p); return p }
    FILENAME == "-" {
      if ($1 == "span") { n++; sf[n] = $2; lo[n] = $3; hi[n] = $4 }
      if ($1 == "name") byname[crate($2), $3] = 1
      if ($1 == "field") field[$2, $3] = 1
      if ($1 == "type") type[$2] = 1
      next
    }
    {
      if ($3 == "field") hit = field[$5, $4]
      else hit = byname[crate($1), $4] || type[$4]
      for (i = 1; i <= n && !hit; i++) hit = $3 != "field" && sf[i] == $1 && lo[i] <= $2 && $2 <= hi[i]
      if (hit) print $1 "\t" $2
    }' - "$demoted" <<<"$named")"
  if [ -z "$restore" ]; then
    [ "$status" -eq 0 ] && break
    echo "uncalled_pub.sh: cargo check fails with errors no demoted item explains:" >&2
    jq -r 'select(.reason == "compiler-message" and .message.level == "error")
      | .message.rendered' "$json" >&2
    exit 2
  fi
  while IFS=$'\t' read -r f line; do
    sed -i "${line}s/pub(crate) /pub /" "$f"
  done <<<"$restore"
  awk -F'\t' 'NR == FNR { r[$1 "\t" $2] = 1; next } !r[$1 "\t" $2]' \
    <(printf '%s\n' "$restore") "$demoted" >"$demoted.tmp"
  mv "$demoted.tmp" "$demoted"
done

awk -F'\t' '
  FILENAME == ARGV[1] { keep[$1 "\t" $2] = 1; next }
  {
    name = $3 == "field" ? $5 "::" $4 : $4
    if (!keep[$1 "\t" name]) print $1 ":" $2 " " $3 " " name
  }' \
  <(keep_list | awk '{ print $1 "\t" $2 }') "$demoted"
