#!/bin/sh
# Builds the end-to-end benchmark and the daemon it drives from source,
# then runs it with the given arguments, e.g.
#
#   sh bench/e2e/run.sh --workload dpi-cold --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
# Run from anywhere: the build and the run happen at the repository root.
set -e
cd "$(dirname "$0")/../.."
dune build --root . --no-config --cache=disabled --require-dune-project-file \
  --display quiet ./bench/e2e/main.exe ./bin/alveared.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"
