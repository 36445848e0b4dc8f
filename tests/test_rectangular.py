import numpy as np
import pytest

from gmfkrylov import (ArgumentError, builtin, gmf_apply_reference, gmf_dense,
                       gmf_via_transpose, polynomial_poles, si_optimal_pole)
from gmfkrylov.rectangular import ENGINES

from conftest import seeded_problem


def test_square_orthogonal_agrees_with_direct():
    op, b = seeded_problem(8, 8, "chebyshev2", 1.0, 1.0, 1)
    f = builtin("sqrt")
    ref = gmf_apply_reference(f, op.dense, b)
    # all singular values are 1: y = f(1) * A b
    assert ref == pytest.approx(op.dense @ b, rel=1e-12)
    ys, tr = gmf_via_transpose(f, op, b, "rational_full",
                               poles=si_optimal_pole(1.0, 1.0, 8), k_max=4,
                               reference=ref)
    assert tr.errors[-1] <= 1e-12


@pytest.mark.parametrize("method", ENGINES)
def test_identity_function_exact_every_k(method):
    op, b = seeded_problem(6, 9, "logspace", 0.5, 3.0, 2)
    f = builtin("identity")
    ys, _ = gmf_via_transpose(f, op, b, method, poles=polynomial_poles(4), k_max=4)
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


def test_all_inner_methods_agree():
    op, b = seeded_problem(10, 14, "chebyshev2", 0.5, 4.0, 5)
    f = builtin("sqrt")
    ref = gmf_apply_reference(f, op.dense, b)
    results = {}
    # Golub-Kahan (every pole at infinity) and shift-and-invert in each engine
    for poles in (polynomial_poles(10), si_optimal_pole(0.5, 4.0, 10)):
        for method in ENGINES:
            ys, tr = gmf_via_transpose(f, op, b, method, poles=poles, k_max=10,
                                       reference=ref)
            results[method, poles.kind] = tr.errors[-1]
    for case, err in results.items():
        assert err <= 1e-8, (case, err)


def test_unknown_method_rejected():
    op, b = seeded_problem(4, 6, "logspace", 0.5, 2.0, 0)
    with pytest.raises(ArgumentError):
        gmf_via_transpose(builtin("sqrt"), op, b, "nope", polynomial_poles(2), k_max=2)
