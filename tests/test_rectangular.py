import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gmfkrylov import (ArgumentError, LinearOperator, PoleSequence, builtin,
                       gmf_apply_factors, gmf_apply_reference, gmf_dense, gmf_via_transpose,
                       polynomial_poles, rational_gmf_approximate, si_optimal_pole)
from gmfkrylov.reference import RANK_RTOL

from conftest import explicit_profile_problem, seeded_problem


def test_square_orthogonal_agrees_with_direct():
    op, b = seeded_problem(8, 8, "chebyshev2", 1.0, 1.0, 1)
    f = builtin("sqrt")
    ref = gmf_apply_reference(f, op.dense, b)
    # all singular values are 1: y = f(1) * A b
    assert ref == pytest.approx(op.dense @ b, rel=1e-12)
    ys, tr = gmf_via_transpose(f, op, b, poles=si_optimal_pole(1.0, 1.0, 8), k_max=4,
                               reference=ref)
    assert tr.errors[-1] <= 1e-12


def test_identity_function_exact_every_k():
    op, b = seeded_problem(6, 9, "logspace", 0.5, 3.0, 2)
    f = builtin("identity")
    ys, _ = gmf_via_transpose(f, op, b, poles=polynomial_poles(4), k_max=4)
    for y in ys:
        assert y == pytest.approx(op.dense @ b, rel=1e-11)


def test_pseudoinverse_identity_on_small_rectangular():
    # (A^+)^T f#(A^T) A = f#(A)
    for seed in range(4):
        op, _ = seeded_problem(5, 8, "logspace", 0.5, 2.0, seed)
        A = op.dense
        f = builtin("sqrt")
        lhs = np.linalg.pinv(A).T @ gmf_dense(f, A.T) @ A
        rhs = gmf_dense(f, A)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_inner_pole_kinds_converge():
    op, b = seeded_problem(10, 14, "chebyshev2", 0.5, 4.0, 5)
    f = builtin("sqrt")
    ref = gmf_apply_reference(f, op.dense, b)
    # Golub-Kahan (every pole at infinity) and shift-and-invert
    for poles in (polynomial_poles(10), si_optimal_pole(0.5, 4.0, 10)):
        ys, tr = gmf_via_transpose(f, op, b, poles=poles, k_max=10, reference=ref)
        assert tr.errors[-1] <= 1e-8, (poles.kind, tr.errors[-1])


def test_matrix_free_wide_operator():
    # A reaches the trick only through products: no dense payload is read
    op, b = seeded_problem(30, 45, "chebyshev2", 0.1, 10.0, 3)
    A, f = op.dense, builtin("sqrt")
    mf = LinearOperator.from_callables(30, 45, lambda v: A @ v, lambda u: A.T @ u)
    ref = gmf_apply_factors(f, *op.factors, b)
    _, tr = gmf_via_transpose(f, mf, b, poles=si_optimal_pole(0.1, 10.0, 30), k_max=30,
                              reference=ref)
    assert tr.errors[-1] <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_rank_deficient_wide_ends_at_roundoff(seed):
    # the inner Q side can step past invariance, where B_k takes a diagonal of
    # roundoff size: a triangular solve with B_k ends near 1e-7 on these
    op, b = explicit_profile_problem([4.0, 3.0, 2.0, 1.0, 0.0, 0.0], 6, 9, seed)
    f = builtin("sqrt")
    ref = gmf_apply_factors(f, *op.factors, b)
    _, tr = gmf_via_transpose(f, op, b, poles=si_optimal_pole(0.5, 4.0, 8), k_max=8,
                              reference=ref)
    assert tr.errors[-1] <= 1e-13


@pytest.mark.parametrize("values,m,n", [([3.0, 2.0, 1.0, 0.5], 4, 7),
                                        ([3.0, 2.0, 0.0, 0.0], 4, 7),
                                        ([3.0, 2.0, 1.0, 0.5, 0.2], 5, 5),
                                        ([3.0, 2.0, 1.0], 6, 3)],
                         ids=["wide", "wide_rank_deficient", "square", "tall"])
def test_each_iterate_is_the_min_norm_solution(values, m, n):
    # y_k = pinv(A^T) w_k for the inner run's own w_k = ||c|| P_k f◇(B_k) e_1
    op, b = explicit_profile_problem(values, m, n, 11)
    f, poles = builtin("sqrt"), si_optimal_pole(0.2, 3.0, 6)
    ys, _ = gmf_via_transpose(f, op, b, poles=poles, k_max=6)
    ws, _ = rational_gmf_approximate(f, op.transpose(), op.dense @ b, poles, 6)
    assert len(ys) == len(ws)
    for y, w in zip(ys, ws):
        want = np.linalg.pinv(op.dense.T) @ w
        assert np.linalg.norm(y - want) <= 1e-12 * np.linalg.norm(want)


def test_f_sees_only_the_kept_singular_values():
    # sigma <= RANK_RTOL sigma_max(B_k) is cut before f is called, so an f
    # that refuses it never sees it
    op, b = explicit_profile_problem([4.0, 3.0, 2.0, 1.0, 0.0, 0.0], 6, 9, 2)
    seen = []

    def f(sigma):
        seen.append(sigma.copy())
        return np.sqrt(sigma)

    gmf_via_transpose(f, op, b, poles=si_optimal_pole(0.5, 4.0, 8), k_max=8)
    assert seen and all(s.size == 0 or s.min() > RANK_RTOL * s.max() for s in seen)


def test_q_side_reference_is_of_length_n():
    # the Q side returns vectors of length n, the length of b
    op, b = seeded_problem(6, 9, "logspace", 0.5, 3.0, 2)
    f, poles = builtin("sqrt"), polynomial_poles(3)
    ys, tr = rational_gmf_approximate(f, op, b, poles, 3, reference=np.ones(9), q_side=True)
    assert all(y.shape == (9,) for y in ys) and len(tr.errors) == len(ys)
    with pytest.raises(ArgumentError, match="reference"):
        rational_gmf_approximate(f, op, b, poles, 3, reference=np.ones(6), q_side=True)


def test_zero_product_gives_the_direct_engine_answer():
    # A b = 0 makes f◇(A) b = 0 exactly: the trick returns what the oracle
    # and the direct engine return, one zero vector with a one-entry trace
    op = LinearOperator.from_dense(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
    b, f, poles = np.array([0.0, 0.0, 1.0]), builtin("sqrt"), polynomial_poles(2)
    ref = gmf_apply_reference(f, op.dense, b)
    direct, direct_trace = rational_gmf_approximate(f, op, b, poles, 2, reference=ref)
    ys, trace = gmf_via_transpose(f, op, b, poles=poles, k_max=2, reference=ref)
    assert not np.any(ref)
    assert len(ys) == len(direct) == 1 and np.array_equal(ys[0], direct[0])
    assert trace.errors == direct_trace.errors == [0.0]


def _pole_kinds(lo, hi, k):
    """Polynomial, shift-and-invert, and infinity alternating with -lo hi."""
    return (polynomial_poles(k), si_optimal_pole(lo, hi, k),
            PoleSequence([math.inf if i % 2 == 0 else -lo * hi for i in range(k)]))


@st.composite
def wide_problems(draw):
    """(operator, b, sigma) of a wide shape up to 12 x 15, rank-deficient ones
    included, with the nonzero singular values drawn from [0.1, 10]."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(m + 1, 15))
    rank = draw(st.integers(1, m))
    sigma = sorted(draw(st.lists(st.floats(0.1, 10.0), min_size=rank, max_size=rank)),
                   reverse=True)
    op, b = explicit_profile_problem(sigma + [0.0] * (m - rank), m, n,
                                     draw(st.integers(0, 2 ** 32 - 1)))
    return op, b, sigma


@given(wide_problems(), st.integers(0, 2), st.sampled_from(["sqrt", "sinh"]))
def test_wide_matches_factors_property(problem, kind, name):
    op, b, sigma = problem
    f, k = builtin(name), op.rows + 2
    ref = gmf_apply_factors(f, *op.factors, b)
    poles = _pole_kinds(sigma[-1], sigma[0], k)[kind]
    _, tr = gmf_via_transpose(f, op, b, poles=poles, k_max=k, reference=ref)
    assert tr.errors[-1] <= 1e-10
