#!/usr/bin/env bash
# Unreached-module gate (`make lint-unreached`): every module in lib/
# must be named — as `M.`, `open M`, `include M` or a `module X = M`
# alias — by some other file in lib/, bin/, bench/, examples/ or
# perfbench/. A module only test/ reaches is dead weight in every
# binary; delete it with its tests.
#
# Usage: scripts/lint_unreached.sh
set -euo pipefail
cd "$(dirname "$0")/.."

roots="lib bin bench examples perfbench"
fail=0

for f in $(find lib -name '*.ml' | sort); do
  base=$(basename "$f" .ml)
  m="$(printf %s "${base:0:1}" | tr a-z A-Z)${base:1}"
  # not preceded by an identifier character or a dot, so `Wire.Stats`
  # is not a use of `Stats`
  pat="(^|[^[:alnum:]_'.])($m\.|(open|include)!? +$m\b)|^ *module +[[:alnum:]_']+ *= *$m\b"
  users=$(grep -rlE --include='*.ml' --include='*.mli' "$pat" $roots \
          | grep -vxE "$(dirname "$f")/$base\.mli?" || true)
  if [ -z "$users" ]; then
    echo "lint-unreached: $m ($f) is named by no other file in $roots"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "lint-unreached: ok"
