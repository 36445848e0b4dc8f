#!/usr/bin/env bash
# The console script on every shipped config: its run and its bounds command,
# failing on the first config the schema refuses or cannot run, or on a bound
# curve that differs by a byte from its shipped file; its oracle command on a
# small matrix and vector in the text formats that it reads; and the refusal
# of two configs with a key no config reads.
#
# Usage, from the repository root: ci/console_script.sh [GMF-COMMAND...]
#   ci/console_script.sh                  # the installed gmf
#   PYTHONPATH=src ci/console_script.sh python -m gmfkrylov.cli
set -euo pipefail
gmf=("${@:-gmf}")
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for config in configs/*.json; do
  "${gmf[@]}" run "$config" --output-dir "$out/configs"
  "${gmf[@]}" bounds "$config" --output-dir "$out/bounds"
done
for dat in "$out"/bounds/*_bound_*.dat; do
  cmp "$dat" "tests/shipped/${dat##*/}"
done
python -c "import sys, numpy as np, gmfkrylov as g
rng = np.random.default_rng(0)
g.save_dense_matrix(sys.argv[1], rng.standard_normal((6, 4)))
np.savetxt(sys.argv[2], rng.standard_normal(4))" "$out/A.txt" "$out/b.txt"
# the oracle computes on one thread of each OpenBLAS pool, so its
# output does not depend on the thread count the process starts with
OPENBLAS_NUM_THREADS=1 "${gmf[@]}" oracle "$out/A.txt" sqrt "$out/b.txt" \
  --out "$out/y_one.txt"
"${gmf[@]}" oracle "$out/A.txt" sqrt "$out/b.txt" --out "$out/y.txt"
cmp "$out/y_one.txt" "$out/y.txt"
# a config that gives a key no config reads, transpose_inner at the
# top level or a typo for hi inside matrix.profile, is refused with
# exit code 2 and a one-line message, not a traceback
python -c "import json, sys
raw = json.load(open(sys.argv[1], encoding='utf-8'))
raw['transpose_inner'] = 'rational_full'
json.dump(raw, open(sys.argv[2], 'w', encoding='utf-8'))
raw = json.load(open(sys.argv[1], encoding='utf-8'))
raw['matrix']['profile']['high'] = 10
json.dump(raw, open(sys.argv[3], 'w', encoding='utf-8'))" \
  configs/rect_transpose_sqrt.json "$out/inner.json" "$out/typo.json"
for bad in inner typo; do
  status=0
  "${gmf[@]}" run "$out/$bad.json" --output-dir "$out/$bad" \
    2> "$out/$bad.err" || status=$?
  cat "$out/$bad.err"
  [[ $status -eq 2 ]] || { echo "$bad: exit code $status, not 2"; exit 1; }
  if grep -q Traceback "$out/$bad.err"; then exit 1; fi
done
echo "console script: every check passed"
