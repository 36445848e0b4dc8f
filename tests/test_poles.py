import math
from fractions import Fraction

import numpy as np
import pytest

from gmfkrylov import (INF, ArgumentError, PoleSequence, builtin, extended_poles,
                       load_user_poles, polynomial_poles, rational_gmf_approximate,
                       rho_branches, si_optimal_pole, si_style_bound)
from gmfkrylov.poles import require_poles

from conftest import seeded_problem


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


def test_pole_file_reads_infinity_in_any_spelling(tmp_path):
    path = tmp_path / "poles.txt"
    path.write_text("INF\n+inf\n-2\n+Infinity\ninfinity\n", encoding="ascii")
    assert tuple(load_user_poles(path)) == (INF, INF, -2.0, INF, INF)
    path.write_text("-1\nNaN\n", encoding="ascii")
    with pytest.raises(ArgumentError, match="NaN pole"):
        load_user_poles(path)


@pytest.mark.parametrize("poles", ["12", "abc", b"12", "", 5, None, [1.0, "2"], [1.0, None],
                                   [np.array([1.0, 2.0])], (True, -2.0), [-1.0, False]],
                         ids=["digits", "letters", "bytes", "empty_string", "number", "none",
                              "string_entry", "none_entry", "array_entry", "true_entry",
                              "false_entry"])
def test_poles_are_a_sequence_of_numbers(poles):
    # a string is no pole sequence, even one of digits: "12" is not (1.0, 2.0),
    # and a bool is no pole: (True, -2.0) is not (1.0, -2.0)
    for make in (PoleSequence, require_poles):
        with pytest.raises(ArgumentError, match="sequence of numbers"):
            make(poles)


def test_numbers_of_any_real_type_are_poles():
    seq = PoleSequence([np.float32(-0.5), np.int64(-2), -3, np.inf, Fraction(-1, 4)])
    assert seq.poles == (-0.5, -2.0, -3.0, INF, -0.25)
    assert all(type(xi) is float for xi in seq)
    assert require_poles(np.array([-1.0, INF]), 3).poles == (-1.0, INF)


def test_engine_refuses_a_string_of_poles():
    op, b = seeded_problem(6, 6, "logspace", 0.5, 3.0, 0)
    with pytest.raises(ArgumentError, match="sequence of numbers"):
        rational_gmf_approximate(builtin("sqrt"), op, b, "12", 3)


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
