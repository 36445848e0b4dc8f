"""Every shipped config reproduces its checked-in traces, within the file's class.

``tests/shipped`` holds the .dat files that ``gmf run`` writes for the 16
configs under ``configs/``. ``harness.run`` computes with numpy's OpenBLAS
pool at one thread, so on one host every ``OPENBLAS_NUM_THREADS`` writes the
same bytes. Each file has a class for a BLAS or CPU that rounds otherwise,
measured before that pin by running every config under
``OPENBLAS_NUM_THREADS`` = 1, 2, 3 and 4 on one host (2, 3 and 4 gave the
same bytes; 1 moved every file that is not byte-identical):

* ``IDENTICAL``: the values are equal bit for bit;
* ``CLOSE``: each value is within the given relative tolerance;
* ``STALL``: the trace sits in a roundoff stall, where the thread count alone
  moves it, and each value is within the given factor either way.

A value is compared where it or the shipped one exceeds ``FLOOR``; the k
column always matches. A change that moves a file beyond its class updates
the file and names the move.
"""

from pathlib import Path

import numpy as np
import pytest

from gmfkrylov import read_dat
from gmfkrylov.harness import load_config, run

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = Path(__file__).resolve().parent / "shipped"
FLOOR = 1e-12
IDENTICAL, CLOSE, STALL = "identical", "close", "in-stall"

# config -> {trace tag: (class, tolerance)}; the comments give the largest
# deviation measured between one thread and more
CLASSES = {
    "polynomial_invquarter": {"err": (CLOSE, 1e-6),           # 8.1e-13
                              "bound_poly": (IDENTICAL, 0.0)},
    "polynomial_sin": {"err": (IDENTICAL, 0.0)},
    "polynomial_sinh": {"err": (IDENTICAL, 0.0)},
    "polynomial_sqrt": {"err": (CLOSE, 1e-6),                 # 1.0e-12
                        "bound_poly": (IDENTICAL, 0.0)},
    "polynomial_sqrtlog": {"err": (CLOSE, 1e-6),              # 9.3e-13
                           "bound_poly": (IDENTICAL, 0.0)},
    "rational_extended_narrow": {"err": (CLOSE, 1e-6)},       # 1.9e-8
    "rational_extended_wide": {"err": (CLOSE, 1e-6)},         # 2.1e-11
    "rational_optpoles_narrow": {"err": (CLOSE, 1e-6),        # 2.6e-7
                                 "bound_rational": (IDENTICAL, 0.0)},
    "rational_optpoles_wide": {"err": (CLOSE, 1e-6),          # 1.3e-7
                               "bound_rational": (IDENTICAL, 0.0)},
    "rational_si_narrow": {"err": (CLOSE, 1e-6),              # 7.8e-8
                           "bound_si": (IDENTICAL, 0.0)},
    "rational_si_wide": {"err": (CLOSE, 1e-6),                # 1.7e-11
                         "bound_si": (IDENTICAL, 0.0)},
    "rect_direct_sqrt": {"err": (STALL, 1.5)},                # 0.89-1.27x
    "rect_direct_zlogz": {"err": (STALL, 1.5)},               # 0.98-1.18x
    "rect_transpose_sqrt": {"err": (CLOSE, 3e-3)},            # 7.9e-4
    "rect_transpose_zlogz": {"err": (CLOSE, 3e-3)},           # 9.9e-4
    "short_vs_full": {"err": (CLOSE, 3e-3),                   # 1.1e-3
                      "err_full": (CLOSE, 1e-5),              # 2.6e-6
                      "diff_short_full": (STALL, 5.0),        # 0.72-3.67x
                      "drift": (STALL, 5.0)},                 # 0.65-3.11x
}


def test_every_config_and_file_has_a_class():
    configs = {p.stem for p in (ROOT / "configs").glob("*.json")}
    files = {p.name for p in SHIPPED.glob("*.dat")}
    assert set(CLASSES) == configs
    assert {f"{name}_{tag}.dat" for name, tags in CLASSES.items() for tag in tags} == files


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_shipped_config_reproduces_its_traces(tmp_path, name):
    summary = run(load_config(str(ROOT / "configs" / f"{name}.json")), output_dir=str(tmp_path))
    assert set(summary["traces"]) == set(CLASSES[name])
    for tag, (kind, tol) in CLASSES[name].items():
        ks, got = np.array(read_dat(summary["traces"][tag])).T
        want_ks, want = np.array(read_dat(SHIPPED / f"{name}_{tag}.dat")).T
        assert ks.tolist() == want_ks.tolist(), tag
        if kind == IDENTICAL:
            assert got.tolist() == want.tolist(), tag
            continue
        above = np.maximum(np.abs(got), np.abs(want)) > FLOOR
        got, want = got[above], want[above]
        if kind == CLOSE:
            assert np.all(np.abs(got - want) <= tol * np.abs(want)), (tag, got, want)
        else:
            ratio = got / want
            assert np.all((ratio <= tol) & (ratio >= 1.0 / tol)), (tag, ratio)
