#!/usr/bin/env bash
# Snapshot gate: the evaluation must reproduce its two committed
# snapshots byte for byte.
#
#   1. `experiments all` at the defaults equals experiments_output.txt.
#   2. The durable grid, `experiments -seeds 2 -windows 2 -trials 5` over
#      every section but latency, equals bench/golden/eval-durable.txt.
#
# Both snapshots are only read, never written. On a mismatch the script
# prints the first differing lines and exits 1.
#
# Environment:
#   GO   go binary (default: go)
set -euo pipefail

GO=${GO:-go}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$GO" build -o "$WORK/experiments" "$ROOT/cmd/experiments"

status=0
check() { # name golden command...
  local name=$1 golden=$2
  shift 2
  "$@" >"$WORK/$name.txt"
  if cmp -s "$WORK/$name.txt" "$golden"; then
    echo "snapshot-check: $name: byte-identical to ${golden#"$ROOT"/}"
  else
    echo "snapshot-check: FAIL: $name differs from ${golden#"$ROOT"/}" >&2
    diff "$golden" "$WORK/$name.txt" | head -20 >&2 || true
    status=1
  fi
}

check all "$ROOT/experiments_output.txt" "$WORK/experiments" all
check durable "$ROOT/bench/golden/eval-durable.txt" \
  "$WORK/experiments" -seeds 2 -windows 2 -trials 5 \
  table1 table2 table3 fig4 flooding refreshpolicies aggressors \
  ablation extensions thresholds faults
exit $status
