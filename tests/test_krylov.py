"""The CGS2 kernel, the breakdown rule and the entry checks the engines share."""

import numpy as np
import pytest

from gmfkrylov import (ArgumentError, LinearOperator, builtin, gk_approximate,
                       gmf_apply_reference, gmf_via_transpose, rational_gmf_approximate,
                       relative_error, rgk_run, si_optimal_pole)
from gmfkrylov.krylov import BREAKDOWN_RTOL, cgs2, normalize

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

    def test_gk_wide(self):
        op, b = seeded_problem(20, 30, "chebyshev2", 0.5, 4.0, 3)
        ys, _ = gk_approximate(F, op, b, 26, reorth=True)
        assert max(converged_errors(ys, gmf_apply_reference(F, op.dense, b))) <= 1e-12

    def test_rational_full_wide(self):
        op, b = seeded_problem(20, 30, "chebyshev2", 0.5, 4.0, 3)
        ys, _ = rational_gmf_approximate(F, op, b, si_optimal_pole(0.5, 4.0, 26), 26)
        assert max(converged_errors(ys, gmf_apply_reference(F, op.dense, b))) <= 1e-12
