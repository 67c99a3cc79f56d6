#!/bin/bash
# Metric-name lint, both ways: every metric-name string literal in src/
# must follow the naming scheme (docs/method.md §10) and be listed in the
# method.md naming tables, and every name in the method.md metric-name
# registry table must be emitted by some src/ literal — so the docs
# registry can never silently drift from the code in either direction.
# The runtime-composed `pool.worker<slot>.*` names are the one documented
# exception to the second rule. Run standalone or via
# scripts/run_sanitized_tests.sh.
#
# Scheme: dot-separated lowercase `<area>.<object>.<property>`, 2-4
# segments, [a-z0-9_] per segment, first segment starting with a letter
# (units are suffixes like _us / _ms, not extra segments).
#
# Extraction: the files are whitespace-collapsed before scanning so a
# wrapped call (name literal on the line after the open paren) and a
# ternary (`bump(cond ? "a.b" : "a.c")`) are both caught — a naive
# line-based grep misses both shapes.
set -eu
cd "$(dirname "$0")/.."

DOC=docs/method.md
SCHEME='^[a-z][a-z0-9_]*(\.[a-z0-9_]+){1,3}$'

# Every dotted string literal inside a metric-instrument call
# (counter/gauge/histogram accessors and the bump() helpers).
names=$(
  find src -name '*.cpp' -o -name '*.hpp' | sort | while read -r f; do
    tr '\n' ' ' < "$f"
    echo
  done |
  grep -oE '(counter|gauge|histogram|bump)[[:space:]]*\([^;{}]*' |
  grep -oE '"[a-z][a-z0-9_]*(\.[a-z0-9_]+)+"' |
  tr -d '"' | sort -u
)

if [ -z "$names" ]; then
  echo "check_metric_names: extracted no metric names from src/ — extractor broken?" >&2
  exit 1
fi

total=0
bad_scheme=0
undocumented=0
for n in $names; do
  total=$((total + 1))
  if ! echo "$n" | grep -qE "$SCHEME"; then
    echo "SCHEME VIOLATION: '$n' (want <area>.<object>.<property>, 2-4 lowercase segments)" >&2
    bad_scheme=$((bad_scheme + 1))
    continue
  fi
  if ! grep -qF "$n" "$DOC"; then
    echo "UNDOCUMENTED: '$n' missing from the $DOC naming tables" >&2
    undocumented=$((undocumented + 1))
  fi
done

# The registry table: its rows run from the "Metric-name registry"
# paragraph to the next heading; column 2 lists the names.
registry=$(
  awk '/^\*\*Metric-name registry\.\*\*/ { on = 1 } on && /^## / { exit } on && /^\| `/' "$DOC" |
  awk -F'|' '{ print $3 }' |
  grep -oE '`[a-z][a-z0-9_]*(\.[a-z0-9_<>]+)+`' |
  tr -d '`' | grep -v '<' | sort -u
)

if [ -z "$registry" ]; then
  echo "check_metric_names: extracted no names from the $DOC registry table — extractor broken?" >&2
  exit 1
fi

registered=0
stale=0
for n in $registry; do
  registered=$((registered + 1))
  if ! grep -qxF "$n" <<< "$names"; then
    echo "STALE: '$n' is in the $DOC registry table but no src/ literal emits it" >&2
    stale=$((stale + 1))
  fi
done

echo "check_metric_names: $total metric name(s) checked, $bad_scheme scheme violation(s), $undocumented undocumented; $registered registry name(s), $stale stale"
[ "$bad_scheme" -eq 0 ] && [ "$undocumented" -eq 0 ] && [ "$stale" -eq 0 ]
