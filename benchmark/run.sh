#!/usr/bin/env bash
# Builds `ld` and the benchmark from this checkout, then runs one
# workload from the checkout root:
#
#   bash benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's summary. Everything is built and written inside the
# checkout (_build/, .bench_build/).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "benchmark/run.sh: not a full checkout (need dune-project, lib/ and bin/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . bin/ld.exe benchmark/run.exe >&2
exec ./_build/default/benchmark/run.exe "$@"
