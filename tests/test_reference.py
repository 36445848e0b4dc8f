import numpy as np
import pytest
from hypothesis import given, settings

from gmfkrylov import builtin, compact_svd, functions, gmf_apply_reference, gmf_dense

from conftest import seeded_problem, small_problems
from oracles import check_identities


def test_identity_function_reproduces_matrix():
    op, _ = seeded_problem(6, 4, "logspace", 0.5, 3.0, 0)
    out = gmf_dense(builtin("identity"), op.dense)
    assert np.linalg.norm(out - op.dense) <= 1e-12 * np.linalg.norm(op.dense)


def test_sqrt_on_spd_diagonal():
    out = gmf_dense(builtin("sqrt"), np.diag([4.0, 9.0]))
    assert out == pytest.approx(np.diag([2.0, 3.0]))


def test_sqrt_composed_from_svd():
    op, _ = seeded_problem(5, 5, "chebyshev2", 1.0, 5.0, 7)
    U, s, Vt = np.linalg.svd(op.dense)
    expected = (U * np.sqrt(s)) @ Vt
    assert gmf_dense(builtin("sqrt"), op.dense) == pytest.approx(expected, rel=1e-12)


def test_apply_odd_monomial_diagonal():
    y = gmf_apply_reference(builtin("z^3"), np.diag([2.0, 3.0]), np.ones(2))
    assert y == pytest.approx([8.0, 27.0])


def test_apply_identity_is_matvec():
    op, b = seeded_problem(7, 5, "logspace", 0.5, 2.0, 3)
    y = gmf_apply_reference(builtin("identity"), op.dense, b)
    assert y == pytest.approx(op.dense @ b, rel=1e-12)


def test_apply_via_composition():
    op, b = seeded_problem(5, 5, "chebyshev2", 1.0, 5.0, 7)
    f = builtin("sqrt_log1p_sqrt")
    U, s, Vt = np.linalg.svd(op.dense)
    expected = (U * f(s)) @ Vt @ b
    assert gmf_apply_reference(f, op.dense, b) == pytest.approx(expected, rel=1e-12)


def test_compact_svd_truncates_rank():
    A = np.diag([1.0, 1e-20])
    svd = compact_svd(A)
    assert svd.rank == 1
    assert gmf_dense(builtin("sqrt"), A)[1, 1] == 0.0


def test_identities_identity_matrix():
    assert check_identities(builtin("sqrt"), np.eye(3)).passed


def test_identities_rank_one_rectangular():
    assert check_identities(builtin("identity"), np.array([[1.0, 0.0]])).passed


def test_identities_seeded_rectangular():
    op, _ = seeded_problem(6, 4, "logspace", 0.5, 4.0, 11)
    report = check_identities(builtin("sqrt_log1p_sqrt"), op.dense)
    assert report.passed, report.violations()


@settings(max_examples=200)
@given(problem=small_problems())
def test_identities_hold_for_every_builtin(problem):
    A = problem[0].dense
    for name in sorted(functions._BUILTINS):
        report = check_identities(builtin(name), A)
        assert report.passed, (name, report.violations())


def test_odd_polynomial_identity_randomized():
    # p(z) = q(z^2) z  =>  p#(A) = q(A A^T) A = A q(A^T A)
    rng = np.random.default_rng(0)
    for seed in range(5):
        op, _ = seeded_problem(7, 5, "logspace", 0.4, 3.0, seed)
        A = op.dense
        c = rng.standard_normal(3)

        def p(z):
            w = np.asarray(z) ** 2
            return (c[0] + c[1] * w + c[2] * w * w) * z

        lhs = gmf_dense(p, A)
        rhs = A @ (c[0] * np.eye(5) + c[1] * (A.T @ A) + c[2] * np.linalg.matrix_power(A.T @ A, 2))
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)


def test_padding_invariance():
    # zero rows/columns do not change the action on the common block
    op, b = seeded_problem(5, 4, "logspace", 0.5, 2.0, 2)
    f = builtin("sqrt")
    y = gmf_apply_reference(f, op.dense, b)
    padded = np.zeros((8, 6))
    padded[:5, :4] = op.dense
    y_pad = gmf_apply_reference(f, padded, np.concatenate([b, np.zeros(2)]))
    assert y_pad[:5] == pytest.approx(y, rel=1e-12, abs=1e-13)
    assert np.linalg.norm(y_pad[5:]) <= 1e-12
