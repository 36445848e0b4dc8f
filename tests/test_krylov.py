"""The CGS2 kernel and the entry checks the three engines share."""

import numpy as np
import pytest

from gmfkrylov import (ArgumentError, builtin, gk_approximate, gmf_via_transpose,
                       rational_gmf_approximate, rgk_run, si_optimal_pole)
from gmfkrylov.krylov import cgs2

from conftest import seeded_problem


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
                 and name != "gk"])


@pytest.mark.parametrize("engine,case", BAD_INPUTS)
def test_engines_reject_bad_input_with_argument_error(engine, case):
    op, b = seeded_problem(6, 9, "logspace", 0.5, 3.0, 0)
    poles = si_optimal_pole(0.5, 3.0, 4)
    if case == "k_max=0":
        args = (poles, 0)
    else:
        args = (None, 3)
    with pytest.raises(ArgumentError):
        ENGINES[engine](op, b, *args)
