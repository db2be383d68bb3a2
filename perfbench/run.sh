#!/bin/sh
# Builds the benchmark from source and runs one workload. From the
# repository root:
#
#   sh perfbench/run.sh --workload udp-plain --seed 11 --seconds 20 --trace 0
#
# Build output goes to standard error; the last line of standard output
# is the JSON result (see perfbench/README.md).
set -eu

if [ ! -f dune-project ] || [ ! -f lib/core/dune ]; then
  echo "perfbench: run from the root of a full checkout (no dune-project or lib/ here)" >&2
  exit 2
fi

dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe >&2

if [ -z "${PERFBENCH_COMMIT:-}" ]; then
  PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" \
    git rev-parse --short HEAD 2>/dev/null || echo unknown)
  export PERFBENCH_COMMIT
fi
exec ./_build/default/perfbench/main.exe "$@"
