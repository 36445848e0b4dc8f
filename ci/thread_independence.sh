#!/usr/bin/env bash
# gmf run computes on numpy's OpenBLAS pool at one thread, so a run started at
# one thread and one at the default write the same .dat files, byte for byte;
# tier-1 checks this for one config only. The manifests record the pools'
# thread counts and are not compared.
#
# Usage, from the repository root: ci/thread_independence.sh [GMF-COMMAND...]
#   ci/thread_independence.sh                  # the installed gmf
#   PYTHONPATH=src ci/thread_independence.sh python -m gmfkrylov.cli
set -euo pipefail
gmf=("${@:-gmf}")
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for config in configs/*.json; do
  OPENBLAS_NUM_THREADS=1 "${gmf[@]}" run "$config" --output-dir "$out/threads_one"
  "${gmf[@]}" run "$config" --output-dir "$out/threads_default"
done
cd "$out"
[[ "$(ls threads_one)" == "$(ls threads_default)" ]]
for dat in threads_one/*.dat; do
  cmp "$dat" "threads_default/${dat#threads_one/}"
done
echo "thread independence: $(ls threads_one/*.dat | wc -l) .dat files equal"
