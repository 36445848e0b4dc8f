"""The CGS2 kernel, the growing basis block, the breakdown rule, the bordered
SVD update and the entry checks the engines share."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gmfkrylov import (ArgumentError, LinearOperator, builtin, gk_approximate, gk_init,
                       gk_step, gmf_apply_reference, gmf_dense, gmf_via_transpose, krylov,
                       rational_gmf_approximate, relative_error, rgk_run, si_optimal_pole)
from gmfkrylov.krylov import BREAKDOWN_RTOL, BorderedSvd, Rows, cgs2, normalize

from conftest import explicit_profile_problem, seeded_problem


class TestCgs2:
    @pytest.mark.parametrize("seed", range(5))
    def test_orthogonal_output_and_summed_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        V, _ = np.linalg.qr(rng.standard_normal((300, 40)))
        # almost inside the block: one pass alone leaves a remainder whose
        # components along V are about 1e-10 of its norm
        w = V @ rng.standard_normal(40) + 1e-6 * rng.standard_normal(300)
        out, c = cgs2(V, w)
        nw = np.linalg.norm(w)
        assert np.abs(V.T @ out).max() <= 1e-14 * nw
        assert np.abs(V.T @ out).max() <= 1e-14 * np.linalg.norm(out)
        assert np.abs(c - V.T @ w).max() <= 1e-14 * nw
        assert np.linalg.norm(w - V @ c - out) <= 1e-14 * nw

    def test_empty_block_returns_input(self):
        w = np.random.default_rng(1).standard_normal(7)
        out, c = cgs2(np.empty((7, 0)), w)
        assert np.array_equal(out, w)
        assert c.size == 0


@pytest.mark.parametrize("window", [None, 6])
def test_rows_keep_every_vector_or_the_last_window(window):
    # 40 appends pass the first allocation of 16 rows: the block grows, or
    # moves its window to the front
    vs = np.random.default_rng(4).standard_normal((40, 7))
    rows = Rows(window)
    for i, v in enumerate(vs):
        rows.append(v)
        kept = vs[:i + 1] if window is None else vs[max(i + 1 - window, 0):i + 1]
        assert np.array_equal(rows.filled, kept)


class TestNormalize:
    def test_roundoff_residue_vanishes(self):
        rng = np.random.default_rng(3)
        V, _ = np.linalg.qr(rng.standard_normal((200, 10)))
        w = V @ rng.standard_normal(10)
        residue, _ = cgs2(V, w)      # w lies in span(V): only roundoff is left
        assert 0.0 < np.linalg.norm(residue) <= BREAKDOWN_RTOL * np.linalg.norm(w)
        out, norm = normalize(residue, np.linalg.norm(w))
        assert norm == 0.0
        assert out.shape == w.shape and not out.any()

    def test_genuine_vector_is_normalized(self):
        w = np.random.default_rng(4).standard_normal(50)
        out, norm = normalize(w, 1e3 * np.linalg.norm(w))
        assert norm == np.linalg.norm(w)
        assert np.array_equal(out, w / norm)

    @pytest.mark.parametrize("factor", [1e-100, 1e-8, 1.0, 1e8, 1e100])
    def test_decision_is_scale_invariant(self, factor):
        w = np.random.default_rng(5).standard_normal(20)
        for ratio, vanished in ((0.5, True), (2.0, False)):
            scale = np.linalg.norm(w) / (ratio * BREAKDOWN_RTOL)
            _, norm = normalize(factor * w, factor * scale)
            assert (norm == 0.0) == vanished


F = builtin("sqrt")
ENGINES = {
    "gk": lambda op, b, poles, k: gk_approximate(F, op, b, k),
    "rational_full": lambda op, b, poles, k: rational_gmf_approximate(F, op, b, poles, k),
    "rational_short": lambda op, b, poles, k: rgk_run(F, op, b, poles, k),
    "transpose_golub_kahan": lambda op, b, poles, k: gmf_via_transpose(
        F, op, b, "golub_kahan", poles=poles, k_max=k),
    "transpose_rational_full": lambda op, b, poles, k: gmf_via_transpose(
        F, op, b, "rational_full", poles=poles, k_max=k),
    "transpose_rational_short": lambda op, b, poles, k: gmf_via_transpose(
        F, op, b, "rational_short", poles=poles, k_max=k),
}
BAD_INPUTS = ([(name, "k_max=0") for name in ENGINES]
              + [(name, "poles=None") for name in ENGINES if "golub_kahan" not in name
                 and name != "gk"]
              + [(name, "b=nan") for name in ENGINES])


@pytest.mark.parametrize("engine,case", BAD_INPUTS)
def test_engines_reject_bad_input_with_argument_error(engine, case):
    op, b = seeded_problem(6, 9, "logspace", 0.5, 3.0, 0)
    poles = si_optimal_pole(0.5, 3.0, 4)
    if case == "b=nan":
        b[1] = np.nan
    if case == "k_max=0":
        args = (poles, 0)
    elif case == "poles=None":
        args = (None, 3)
    else:
        args = (poles, 3)
    with pytest.raises(ArgumentError):
        ENGINES[engine](op, b, *args)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("engine", ENGINES)
def test_engines_take_start_vectors_whose_norm_over_or_underflows(engine, scale):
    # ||scale * b||^2 over- or underflows; f◇(A) b is linear in b
    op, b = seeded_problem(10, 10, "logspace", 0.5, 3.0, 0)
    poles = si_optimal_pole(0.5, 3.0, 6)
    ys = ENGINES[engine](op, b, poles, 6)[0]
    ys_scaled = ENGINES[engine](op, scale * b, poles, 6)[0]
    assert len(ys_scaled) == len(ys) == 6
    for y, y_scaled in zip(ys, ys_scaled):
        assert np.linalg.norm(y_scaled / scale - y) <= 1e-12 * np.linalg.norm(y)


@pytest.mark.parametrize("engine", [*ENGINES, "gk_reorth"])
def test_engines_never_call_norm_estimate(engine, monkeypatch):
    def refuse(self):
        raise AssertionError("an engine called LinearOperator.norm_estimate")

    monkeypatch.setattr(LinearOperator, "norm_estimate", refuse)
    op, b = seeded_problem(6, 9, "logspace", 0.5, 3.0, 0)
    poles = si_optimal_pole(0.5, 3.0, 10)
    if engine == "gk_reorth":
        ys, _ = gk_approximate(F, op, b, 10, reorth=True)
    else:
        ys = ENGINES[engine](op, b, poles, 10)[0]
    assert ys and all(np.all(np.isfinite(y)) for y in ys)


def converged_errors(ys, reference, tol=1e-12):
    """Relative errors from the first k at which the error is <= tol to the last k."""
    errs = [relative_error(y, reference) for y in ys]
    first = next((i for i, e in enumerate(errs) if e <= tol), None)
    assert first is not None, f"never converged: {errs}"
    return errs[first:]


class TestBreakdownAtInvariance:
    """Runs that reach an invariant subspace end there with the exact answer.

    A breakdown test against a dense ||A|| missed the roundoff left of a
    vanished vector (scaled by a much smaller ||A q_k||) and normalized it into
    the next basis vector, or stopped one step short of the exact answer.
    """

    def test_gk_rank_deficient_square(self):
        op, b = explicit_profile_problem([4, 3, 2, 1, 0, 0, 0, 0], 8, 8, 4)
        ys, _ = gk_approximate(F, op, b, 8, reorth=True)
        assert max(converged_errors(ys, gmf_apply_reference(F, op.dense, b))) <= 1e-12

    def test_gk_reorthogonalizes_by_default(self):
        op, b = explicit_profile_problem([4, 3, 2, 1, 0, 0, 0, 0], 8, 8, 4)
        ys, _ = gk_approximate(F, op, b, 8)
        assert relative_error(ys[-1], gmf_apply_reference(F, op.dense, b)) <= 1e-12

    def test_gk_wide(self):
        op, b = seeded_problem(20, 30, "chebyshev2", 0.5, 4.0, 3)
        ys, _ = gk_approximate(F, op, b, 26, reorth=True)
        assert max(converged_errors(ys, gmf_apply_reference(F, op.dense, b))) <= 1e-12

    def test_rational_full_wide(self):
        op, b = seeded_problem(20, 30, "chebyshev2", 0.5, 4.0, 3)
        ys, _ = rational_gmf_approximate(F, op, b, si_optimal_pole(0.5, 4.0, 26), 26)
        assert max(converged_errors(ys, gmf_apply_reference(F, op.dense, b))) <= 1e-12


def update_defects(B, f):
    """Per k: ||z_k - gmf_dense(f, B_k)||, ||gmf_dense(f, B_k)|| and ||U_k^T U_k - I||_F.

    z_k is the bordered update's f◇(B_k) e_1; the Frobenius norm bounds the 2-norm.
    """
    svd, out = BorderedSvd(), []
    for k in range(1, B.shape[0] + 1):
        z = svd.update(B[:k, k - 1], f)
        assert z is not None, f"the update failed at k={k}"
        ref = gmf_dense(f, B[:k, :k], rtol=0.0)[:, 0]
        out.append((np.linalg.norm(z - ref), np.linalg.norm(ref),
                    np.linalg.norm(svd.U.T @ svd.U - np.eye(k))))
    return np.array(out).T


def gk_bidiagonal(op, b, k):
    state = gk_init(b)
    for _ in range(k):
        if gk_step(state, op, reorth=True).breakdown:
            break
    return state.bidiagonal()


class TestBorderedSvd:
    """The update of the SVD of B_k against a dense SVD of every B_k, f = sqrt."""

    def check(self, B):
        err, ref, orth = update_defects(B, F)
        assert np.max(err / ref) <= 1e-12
        assert np.max(orth) <= 1e-12

    def test_golub_kahan_bidiagonal(self):
        # the gk_reorth benchmark problem at seed 1, k = 1..300
        self.check(gk_bidiagonal(*seeded_problem(400, 400, "chebyshev2", 0.1, 10.0, 1), 300))

    def test_clustered_singular_values(self):
        # 8 clusters of 50 singular values, relative spread 1e-10: the Ritz
        # values cluster, and without the recomputed z the update loses U's
        # orthogonality (4.4e-6) and the agreement (6.7e-7)
        centers = np.geomspace(0.1, 10.0, 8)
        values = np.sort(np.outer(centers, 1.0 + 1e-10 * np.linspace(-1, 1, 50)).ravel())
        op, b = explicit_profile_problem(values[::-1], 400, 400, 2)
        self.check(gk_bidiagonal(op, b, 60))

    def test_breakdown_column(self):
        # rank 4: GK breaks down at k = 5 with the final column (beta_4, 0)
        op, b = explicit_profile_problem([4, 3, 2, 1, 0, 0, 0, 0], 8, 8, 4)
        B = gk_bidiagonal(op, b, 8)
        assert B.shape == (5, 5) and B[4, 4] == 0.0
        self.check(B)


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_evaluate_without_a_dense_svd(engine, monkeypatch):
    calls = []
    dense = krylov.gmf_dense
    monkeypatch.setattr(krylov, "gmf_dense", lambda *a, **kw: calls.append(a) or dense(*a, **kw))
    op, b = seeded_problem(12, 10, "logspace", 0.5, 3.0, 0)
    ys = ENGINES[engine](op, b, si_optimal_pole(0.5, 3.0, 10), 10)[0]
    assert len(ys) == 10 and not calls
    assert relative_error(ys[-1], gmf_apply_reference(F, op.dense, b)) <= 1e-6


def test_dlasd4_failure_hands_the_run_to_the_dense_svd(monkeypatch):
    op, b = seeded_problem(30, 30, "chebyshev2", 0.1, 10.0, 1)
    monkeypatch.setattr(BorderedSvd, "update", lambda self, column, f: None)
    dense_ys, _ = gk_approximate(F, op, b, 12)
    monkeypatch.undo()

    calls = []
    dense = krylov.gmf_dense
    monkeypatch.setattr(krylov, "gmf_dense", lambda *a, **kw: calls.append(a) or dense(*a, **kw))
    monkeypatch.setattr(krylov, "dlasd4",
                        lambda i, d, z, rho: (np.zeros_like(d), 0.0, np.zeros_like(d), 1))
    ys, _ = gk_approximate(F, op, b, 12)
    # k = 1 needs no dlasd4; its first call fails at k = 2, and the dense SVD
    # evaluates every k from there on
    assert len(calls) == 11
    assert relative_error(ys[0], dense_ys[0]) <= 1e-15
    assert all(np.array_equal(y, y_dense) for y, y_dense in zip(ys[1:], dense_ys[1:]))


def triangular_case(seed, k, shape, diagonal):
    """A k x k upper-triangular or bidiagonal B with ||B||_2 = 1."""
    rng = np.random.default_rng(seed)
    B = np.triu(rng.standard_normal((k, k)))
    if shape == "bidiagonal":
        B = np.tril(B, 1)
    if diagonal == "graded":
        B *= (10.0 ** -rng.uniform(0.05, 0.6)) ** np.add.outer(np.arange(k), np.arange(k))
    elif diagonal == "repeated":
        B[np.diag_indices(k)] = rng.choice([1.0, 2.0], k)
        B[np.triu_indices(k, 1)] *= rng.random(k * (k - 1) // 2) < 0.3
    elif diagonal == "zero":
        B[np.diag_indices(k)] *= rng.random(k) < 0.5
    norm = np.linalg.norm(B, 2)
    return B / norm if norm > 0 else B


@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 40),
       shape=st.sampled_from(["upper", "bidiagonal"]),
       diagonal=st.sampled_from(["random", "graded", "repeated", "zero"]))
def test_bordered_update_matches_dense_svd(seed, k, shape, diagonal):
    # sinh is entire and odd, so f◇ is well conditioned: the two SVDs must
    # agree to roundoff even where singular values repeat or vanish
    err, _, orth = update_defects(triangular_case(seed, k, shape, diagonal), builtin("sinh"))
    assert np.max(err) <= 1e-12
    assert np.max(orth) <= 1e-12
