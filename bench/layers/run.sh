#!/bin/sh
# Build layers.exe from the source tree in the current directory, then
# run it with the arguments given.  Run from the root of the
# repository:
#
#   sh bench/layers/run.sh --workload fig5-beh --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays in the tree: the build
# in _build (without dune's shared cache), compiler and benchmark
# temporaries, journals and traces in .bench_layers.
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/layers/dune ]; then
  echo "run.sh: run this from the root of the repository" >&2
  exit 2
fi
mkdir -p .bench_layers/tmp
TMPDIR="$PWD/.bench_layers/tmp"
export TMPDIR
dune build --root . --cache=disabled --display=quiet ./bench/layers/layers.exe
exec ./_build/default/bench/layers/layers.exe "$@"
