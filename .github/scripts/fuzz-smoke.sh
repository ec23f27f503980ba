#!/usr/bin/env bash
# Runs one fuzz target for ten seconds on top of its corpus, and fails
# unless the fuzzer ran more inputs than its corpus holds at the end: a
# target whose final "execs" does not exceed its "total" replayed its seeds
# and cached inputs and explored nothing.
#
#   bash .github/scripts/fuzz-smoke.sh TARGET PACKAGE
set -euo pipefail
target=$1 pkg=$2
log=$(mktemp)
go test -run '^$' -fuzz "$target" -fuzztime 10s "$pkg" 2>&1 | tee "$log"
last=$(grep -E 'execs: [0-9]+' "$log" | tail -n 1 || true)
execs=$(sed -nE 's/.*execs: ([0-9]+).*/\1/p' <<<"$last")
total=$(sed -nE 's/.*\(total: ([0-9]+)\).*/\1/p' <<<"$last")
if [ -z "$execs" ] || [ -z "$total" ] || [ "$execs" -le "$total" ]; then
  echo "fuzz guard: $target ended at ${execs:-no} execs with a corpus of ${total:-unknown}: it explored nothing past its corpus" >&2
  exit 1
fi
echo "fuzz guard: $target ran $execs inputs against a corpus of $total"
