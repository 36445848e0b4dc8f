import numpy as np
import pytest

from gmfkrylov import (ArgumentError, EvaluationError, ScalarFunction, builtin,
                       builtin_names, companion_g, odd_monomial)


def test_builtin_values():
    assert builtin("sqrt")(4.0) == pytest.approx(2.0)
    assert builtin("sqrt_log1p_sqrt")(1.0) == pytest.approx(np.log(2.0))
    assert builtin("inv_quarter")(16.0) == pytest.approx(0.5)
    assert builtin("z^5")(2.0) == pytest.approx(32.0)


def test_unknown_name():
    with pytest.raises(ArgumentError):
        builtin("nope")
    with pytest.raises(ArgumentError):
        builtin("z^4")


def test_small_at_zero_flags():
    flagged = {"z_log_z", "sqrt_log1p_sqrt", "sinh", "sin", "identity"}
    unflagged = {"sqrt", "inv_quarter", "sqrt_log"}
    for name in flagged:
        assert builtin(name).small_at_zero, name
    for name in unflagged:
        assert not builtin(name).small_at_zero, name
    assert odd_monomial(2).small_at_zero
    assert odd_monomial(3).small_at_zero


def test_companion_closed_forms():
    z = np.geomspace(1e-2, 1e2, 17)
    g_id = companion_g(builtin("identity"))
    assert g_id(z) == pytest.approx(np.ones_like(z))
    g_sqrt = companion_g(builtin("sqrt"))
    assert g_sqrt(z) == pytest.approx(z ** -0.25)
    g_cube = companion_g(builtin("z^3"))
    assert g_cube(z) == pytest.approx(z)


def test_companion_identity_on_log_grid():
    names = list(builtin_names()) + ["z^3", "z^5"]
    for name in names:
        # sinh overflows double precision past ~710; the identity is checked
        # on the representable part of the [1e-3, 1e3] grid
        hi = 7e2 if name == "sinh" else 1e3
        z = np.geomspace(1e-3, hi, 61)
        f = builtin(name)
        g = companion_g(f)
        lhs = g(z * z) * z
        rhs = f(z)
        assert np.all(np.abs(lhs - rhs) <= 1e-14 * np.abs(rhs) + 1e-300), name


def test_companion_at_zero():
    g = companion_g(builtin("sinh"))
    assert g(np.array([0.0]))[0] == 0.0
    with pytest.raises(EvaluationError):
        companion_g(builtin("sqrt"))(np.array([0.0]))


def test_negative_argument_rejected():
    with pytest.raises(EvaluationError):
        builtin("sqrt")(np.array([-1.0]))


def test_complex_continuations():
    f = builtin("sqrt")
    s = np.array([1.0 + 1.0j])
    assert f.complex_eval(s) == pytest.approx(np.sqrt(s))
    # odd extension to the left half-plane
    assert f.complex_eval_left(-s) == pytest.approx(-np.sqrt(s))
    bare = ScalarFunction("bare", np.sqrt)
    assert not bare.has_complex
    with pytest.raises(EvaluationError):
        bare.complex_eval(s)
