#!/usr/bin/env bash
# One short run of a benchmark workload and its gates. run.py exits 0 even
# when an operation failed, so the last line's "correct" decides. A traced run
# also fails unless its operation counts repeated from run to run.
#
# Usage, from the repository root, with run.py's options for one workload:
#   ci/bench_smoke.sh --workload matfree_rational --trace 1
# Give PYTHONPATH=src where the package is not installed.
set -euo pipefail
(($#)) || { echo "usage: $0 --workload NAME --trace 0|1" >&2; exit 2; }
run="$*"
log=$(mktemp)
trap 'rm -f "$log"' EXIT

python3 perfbench/run.py "$@" --seed 1 --seconds 1 | tee "$log"
tail -n 1 "$log" | python3 -c "import json, sys; sys.exit(0 if json.load(sys.stdin)['correct'] is True else 1)"
if [[ "$run" == *"--trace 1"* ]]; then
  grep -qx "counts_repeat = True" "$log"
fi
# the matrix-free solves share one Krylov basis (317 products at seed
# 1); a fall back to per-solve CG (2,397) fails here, as does a
# missing apply_calls line
if [[ "$run" == "--workload matfree_rational --trace 1" ]]; then
  grep "^operators.apply_calls = " "$log" | awk '$3 <= 600 { ok = 1 } END { exit !ok }'
fi
# the set-up's dense oracle applies its SVD to b without forming U
# or V (about 305 MB at n = 2000); numpy's gesdd, which forms them
# (about 360 MB), fails here, as does a missing peak_rss_mb line
if [[ "$run" == "--workload rational_short --trace 0" ]]; then
  grep "^peak_rss_mb = " "$log" | awk '$3 <= 340 { ok = 1 } END { exit !ok }'
fi
# the desk run reports its peak; no ceiling, since the import
# baseline differs between runners: tests/test_harness.py's traced
# footprint is the host-independent guard
if [[ "$run" == "--workload desk_configs --trace 0" ]]; then
  grep -q "^peak_rss_mb = " "$log"
fi
echo "bench smoke ($run): every gate passed"
