import math

import numpy as np
import pytest

from gmfkrylov import (INF, ArgumentError, PoleSequence, extended_poles,
                       load_user_poles, polynomial_poles, rho_branches,
                       si_optimal_pole, si_style_bound)


def test_polynomial_poles():
    assert tuple(polynomial_poles(1)) == (INF,)
    assert tuple(polynomial_poles(3)) == (INF, INF, INF)


def test_extended_poles():
    assert tuple(extended_poles(2)) == (INF, 0.0)
    assert tuple(extended_poles(4)) == (INF, 0.0, INF, 0.0)
    assert extended_poles(4).has_zero


def test_si_optimal_pole_values():
    assert tuple(si_optimal_pole(1.0, 1.0, 1)) == (-1.0,)
    assert tuple(si_optimal_pole(0.1, 10.0, 2)) == (-1.0, -1.0)
    seq = si_optimal_pole(1.0, 2.0, 1)
    assert seq[0] == -2.0
    # two-branch convergence ratio at the optimal pole: both branches equal
    # 3 - 2 sqrt(2) = 0.17157...
    b1, b2 = rho_branches(1.0, 2.0, -2.0)
    assert b1 == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-12)
    assert b2 == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-12)


def test_si_invalid_interval():
    with pytest.raises(ArgumentError):
        si_optimal_pole(2.0, 1.0, 1)
    with pytest.raises(ArgumentError):
        si_optimal_pole(0.0, 1.0, 1)


def test_load_user_poles(tmp_path):
    path = tmp_path / "poles.txt"
    path.write_text("inf\n-1.5\n0\n", encoding="ascii")
    seq = load_user_poles(path)
    assert tuple(seq) == (INF, -1.5, 0.0)
    assert seq.kind == "user_file"


def test_negative_infinity_is_the_pole_at_infinity(tmp_path):
    assert tuple(PoleSequence((-INF, 0.0, -INF, -1.0))) == (INF, 0.0, INF, -1.0)
    assert PoleSequence((-INF,) * 3).validate_interval(1.0, 2.0)
    path = tmp_path / "poles.txt"
    path.write_text("-inf\n-1.5\n-Infinity\n", encoding="ascii")
    assert tuple(load_user_poles(path)) == (INF, -1.5, INF)


def test_empty_pole_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="ascii")
    with pytest.raises(ArgumentError):
        load_user_poles(path)


def test_unparsable_pole(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("inf\nxyz\n", encoding="ascii")
    with pytest.raises(ArgumentError, match="bad.txt:2"):
        load_user_poles(path)


def test_pole_inside_declared_interval_rejected(tmp_path):
    # squared singular interval [1, 100]: the pole 4.0 sits inside
    path = tmp_path / "inside.txt"
    path.write_text("4.0\n", encoding="ascii")
    with pytest.raises(ArgumentError):
        load_user_poles(path, sigma_min=1.0, sigma_max=10.0)
    seq = load_user_poles(path)  # without a declared interval it parses
    with pytest.raises(ArgumentError):
        seq.validate_interval(1.0, 10.0)


def test_si_pole_minimizes_bound_on_grid():
    # grid argmin of the bound over negative xi lands at -sigma_min*sigma_max
    s, S = 0.3, 7.0
    xis = -np.geomspace(0.01, 100.0, 81) * (s * S)
    vals = [si_style_bound(s, S, xi, 1.0, 12) for xi in xis]
    i = int(np.argmin(vals))
    opt = -s * S
    lo = xis[min(i + 1, len(xis) - 1)]
    hi = xis[max(i - 1, 0)]
    assert lo <= opt <= hi
