#!/usr/bin/env bash
# Builds dvbp and the benchmark harness from source, then runs the harness:
#
#   bash perfbench/run.sh --workload serve-pipelined --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --self-test
#
# Run it from the root of a dvbp source checkout. Build output goes to
# stderr, so the last line on stdout is the harness's JSON result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a dvbp source checkout: $(pwd)" >&2
  exit 2
fi
dune build --root . --profile release ./bin/dvbp_cli.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe --dvbp ./_build/default/bin/dvbp_cli.exe "$@"
