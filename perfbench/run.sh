#!/usr/bin/env bash
# Builds the benchmark from source, then runs it:
#   bash perfbench/run.sh --workload admit|notify|churn --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result.
set -eu
cd "$(dirname "$0")/.."
# The shared dune cache would write outside the checkout.
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -e .git ]; then
  PERFBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
export PERFBENCH_COMMIT="${PERFBENCH_COMMIT:-unknown}"
# The load generator and the broker share the last CPU this shell may
# use; the generator runs under SCHED_IDLE, the broker (see broker.ml)
# under the normal policy, so the broker always runs first.
cpu="$(taskset -cp $$ | sed 's/.*: //' | tr ',' '\n' | tail -n 1 | sed 's/.*-//')"
exec taskset -c "$cpu" chrt -i 0 ./_build/default/perfbench/main.exe "$@"
