#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it. Arguments pass
# through to e2e.exe:
#   bash bench_e2e/run.sh --workload lookup-mix --seed 3 --seconds 20 --trace 0
# The build and the run write only inside the checkout holding this file.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench_e2e/run.sh: $(pwd) is not a checkout of the project (no dune-project, lib/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet bench_e2e/e2e.exe 1>&2
exec ./_build/default/bench_e2e/e2e.exe "$@"
