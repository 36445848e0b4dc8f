import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from gmfkrylov import (ArgumentError, EvaluationError, builtin, functions,
                       gmf_apply_factors, gmf_apply_reference, gmf_dense, reference)
from gmfkrylov.cli import main
from gmfkrylov.operators import blas_thread_counts, save_dense_matrix

from conftest import explicit_profile_problem, seeded_problem, small_problems
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


def test_truncation_drops_the_rank_deficient_part():
    A = np.diag([1.0, 1e-20])
    _, s, _ = reference._truncated(*np.linalg.svd(A, full_matrices=False))
    assert s.size == 1
    assert gmf_dense(builtin("sqrt"), A)[1, 1] == 0.0


def test_truncation_keeps_views_when_nothing_is_dropped():
    op, _ = seeded_problem(9, 6, "logspace", 0.5, 4.0, 2)
    U, sigma, V = op.factors
    U_r, s_r, V_r = reference._truncated(U, sigma, V.T)
    assert s_r.size == 6
    assert all(np.shares_memory(*pair) for pair in ((U_r, U), (s_r, sigma), (V_r, V)))


@pytest.mark.parametrize("sigma", [[3.0, 2.0, 0.0], [3.0, 1e-20, 2.0]])
def test_truncation_copies_the_kept_columns_in_any_order(sigma):
    rng = np.random.default_rng(4)
    U = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((4, 3)))[0]
    sigma, keep = np.array(sigma), np.array(sigma) > 1e-10
    U_r, _, V_r = reference._truncated(U, sigma, V.T)
    assert not np.shares_memory(U_r, U) and not np.shares_memory(V_r, V)
    assert np.array_equal(U_r, U[:, keep]) and np.array_equal(V_r, V[:, keep])
    b, f = rng.standard_normal(4), builtin("sqrt")
    expected = (U[:, keep] * f(sigma[keep])) @ V[:, keep].T @ b
    assert gmf_apply_factors(f, U, sigma, V, b) == pytest.approx(expected, rel=1e-14)


def test_oracle_from_synthesis_factors_copies_no_factor():
    # a 400 x 400 synthesis: the oracle allocates vectors only, where copies
    # of U and V took 2 n^2 doubles
    n, f = 400, builtin("sqrt")
    op, b = seeded_problem(n, n, "logspace", 0.1, 10.0, 1)
    gmf_apply_factors(f, *op.factors, b)
    tracemalloc.start()
    try:
        gmf_apply_factors(f, *op.factors, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * n * n * 8


@pytest.mark.parametrize("m,n", [(30, 20), (20, 30), (25, 25), (1, 9), (9, 1)])
def test_apply_only_svd_matches_the_synthesis_factors(m, n):
    f = builtin("sqrt")
    for seed in (1, 2):
        op, b = seeded_problem(m, n, "logspace", 0.1, 10.0, seed)
        expected = gmf_apply_factors(f, *op.factors, b)
        y = gmf_apply_reference(f, op.dense, b)
        assert np.linalg.norm(y - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("m,n", [(8, 6), (6, 8)])
def test_rank_cut_keeps_f_off_the_dropped_values(m, n):
    op, b = explicit_profile_problem([4.0, 3.0, 2.0, 1e-14, 0.0, 0.0], m, n, 3)
    seen = []

    def recording(s):
        seen.append(np.array(s))
        return np.sqrt(s)

    y = gmf_apply_reference(recording, op.dense, b)
    assert len(seen) == 1 and seen[0] == pytest.approx([4.0, 3.0, 2.0], rel=1e-13)
    assert np.all(seen[0] > reference.RANK_RTOL * 4.0)
    expected = gmf_apply_factors(builtin("sqrt"), *op.factors, b)
    assert np.linalg.norm(y - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("m,n", [(4, 3), (3, 4)])
def test_zero_matrix_gives_zeros(m, n):
    calls = []
    y = gmf_apply_reference(lambda s: calls.append(s) or np.sqrt(s), np.zeros((m, n)), np.ones(n))
    assert np.array_equal(y, np.zeros(m)) and not calls


@pytest.mark.parametrize("m,n", [(400, 400), (400, 250), (250, 400)])
def test_apply_only_svd_footprint(m, n):
    # T, U_B, V_B and dbdsdc's work: about 6 n^2 doubles for a square A, where
    # numpy's gesdd with U and V held about 8 n^2
    rng = np.random.default_rng(5)
    A, b, f = rng.standard_normal((m, n)), rng.standard_normal(n), builtin("sqrt")
    gmf_apply_reference(f, A, b)
    tracemalloc.start()
    try:
        gmf_apply_reference(f, A, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * m * n * 8


def test_apply_only_svd_restores_the_thread_counts():
    op, b = seeded_problem(60, 40, "logspace", 0.1, 10.0, 4)
    before = blas_thread_counts()
    gmf_apply_reference(builtin("sqrt"), op.dense, b)
    assert blas_thread_counts() == before


@pytest.mark.parametrize("A,b", [
    (np.ones(3), np.ones(3)),
    (np.ones((2, 2, 2)), np.ones(2)),
    (np.zeros((0, 3)), np.ones(3)),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)),
    (np.array([[1.0, 0.0], [0.0, np.inf]]), np.ones(2)),
    (np.eye(2), np.ones(3)),
    (np.eye(2), np.ones((2, 1))),
    (np.eye(2), np.array([1.0, np.nan])),
    (np.eye(2), ["a", "b"]),
], ids=["A_1d", "A_3d", "A_empty", "A_nan", "A_inf", "b_length", "b_2d", "b_nan", "b_text"])
def test_oracle_refuses_invalid_inputs(A, b):
    with pytest.raises(ArgumentError):
        gmf_apply_reference(builtin("sqrt"), A, b)


def test_lapack_info_raises_evaluation_error():
    # M = -1 is dgebrd's first illegal argument: info = -1
    work = np.empty(4)
    with pytest.raises(EvaluationError, match="dgebrd failed: info = -1"):
        reference._lapack("dgebrd", -1, 1, work, 1, work, work, work, work, work, 4)


def fail_routine(monkeypatch, name):
    """Make LAPACK's ``name`` report info = 1 and do nothing else; returns the
    list of its calls."""
    calls, routine = [], reference._routine

    def failing(*args):
        calls.append(name)
        args[-1]._obj.value = 1      # info, passed by reference last

    monkeypatch.setattr(reference, "_routine",
                        lambda n: failing if n == name else routine(n))
    return calls


@pytest.mark.parametrize("name", ["dgebrd", "dbdsdc", "dormbr"])
def test_each_routine_failure_raises_evaluation_error(monkeypatch, name):
    failing = fail_routine(monkeypatch, name)
    op, b = seeded_problem(6, 4, "logspace", 0.5, 2.0, 1)
    with pytest.raises(EvaluationError, match=f"{name} failed: info = 1"):
        gmf_apply_reference(builtin("sqrt"), op.dense, b)
    assert failing


@pytest.mark.parametrize("name", ["dgebrd", "dbdsdc", "dormbr"])
def test_oracle_command_exits_3_on_a_lapack_failure(tmp_path, capsys, monkeypatch, name):
    fail_routine(monkeypatch, name)
    save_dense_matrix(tmp_path / "m.txt", np.diag([4.0, 9.0, 1.0]))
    (tmp_path / "b.txt").write_text("1\n1\n1\n", encoding="ascii")
    assert main(["oracle", str(tmp_path / "m.txt"), "sqrt", str(tmp_path / "b.txt")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"gmf: numerical failure: LAPACK {name} failed: info = 1"]


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
