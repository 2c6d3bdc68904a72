#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 30 --trace 0
# or run its harness tests:
#   bash perfbench/run.sh --selftest
# The benchmark is a dune project of its own (perfbench/dune-project). Its
# workspace is assembled in .bench_build/ws from that project file, a copy
# of lib/ and perfbench/src, and built there. Build output goes to
# standard error, so the last line of standard output is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from a full source checkout (dune-project and lib/ are missing)" >&2
  exit 2
fi
ws=.bench_build/ws
mkdir -p "$ws"
rm -rf "$ws/lib" "$ws/perfbench"
cp perfbench/dune-project "$ws/dune-project"
cp -R lib "$ws/lib"
cp -R perfbench/src "$ws/perfbench"
if [ "${1:-}" = "--selftest" ]; then
  exec dune test --force --root "$ws" 1>&2
fi
dune build --root "$ws" ./perfbench/main.exe 1>&2
exec "$ws/_build/default/perfbench/main.exe" "$@"
