#!/usr/bin/env bash
# Build the webracer CLI and the perfbench program from this checkout,
# then run one workload:
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
# Run it from the root of a webracer checkout. The build goes to
# .bench_build (dune's shared cache off, so nothing is written outside
# the checkout); traces, daemon logs and the socket go to
# .bench_build/perfbench.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a webracer checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build \
  ./perfbench/perfbench.exe ./bin/webracer_cli.exe >&2
exec .bench_build/default/perfbench/perfbench.exe \
  --webracer .bench_build/default/bin/webracer_cli.exe "$@"
