#!/usr/bin/env bash
# Builds dicheck and the benchmark from source in this checkout, then
# runs one benchmark invocation, e.g.
#
#   bash benchsuite/run.sh --workload pla-96x192 --seed 7 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the result.
# See benchsuite/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet \
  ./bin/dicheck.exe ./benchsuite/main.exe 1>&2
exec ./_build/default/benchsuite/main.exe "$@"
