"""The CGS2 kernel, the growing basis block, the breakdown rule, the bordered
SVD update, the entry checks the engines share and the one rule each for
counts and for real numbers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gmfkrylov import (ArgumentError, LinearOperator, PoleSequence, SingularProfile, builtin,
                       extended_poles, gk_approximate, gk_init, gk_step, gmf_apply_factors,
                       gmf_apply_reference, gmf_dense,
                       gmf_via_transpose, krylov, odd_monomial, polynomial_bound_curve,
                       polynomial_poles, quasi_optimal_rational_bound, rational_bound_curve,
                       rational_gmf_approximate, reconstruct_dense, relative_error,
                       rho_branches, rgk_run, sample_h_sup, si_closed_form_bound,
                       si_optimal_pole, si_style_bound, singular_profile,
                       synthesize_test_matrix)
from gmfkrylov.harness import MatrixSpec
from gmfkrylov.krylov import (BREAKDOWN_RTOL, BorderedSvd, Rows, cgs2, normalize,
                              require_count, require_number)
from gmfkrylov.poles import require_poles
from gmfkrylov.rectangular import ENGINES as TABLE

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


def test_rows_keep_every_vector():
    # 40 appends pass five doublings of the first one-row block
    vs = np.random.default_rng(4).standard_normal((40, 7))
    rows = Rows()
    for i, v in enumerate(vs):
        rows.append(v)
        assert np.array_equal(rows.filled, vs[:i + 1])


def test_rows_grow_from_one_row():
    # a basis that stops after a few vectors holds no 16-row first block
    rows, capacity = Rows(), []
    for v in np.eye(5)[:3]:
        rows.append(v)
        capacity.append(len(rows.block))
    assert capacity == [1, 2, 4]


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


def _direct(name):
    return lambda op, b, poles, k, reference=None: TABLE[name](F, op, b, poles, k,
                                                               reference=reference)


def _transposed(op, b, poles, k, reference=None):
    return gmf_via_transpose(F, op, b, poles=poles, k_max=k, reference=reference)


def _golub_kahan(reorth):
    return lambda op, b, poles, k, reference=None: gk_approximate(
        F, op, b, k, reorth=reorth, reference=reference)


# every engine of the package table under one name, the transpose trick (the
# full engine inside) and the library's Golub-Kahan entry, which takes no poles
ENGINES = {**{name: _direct(name) for name in TABLE},
           "transpose_rational_full": _transposed,
           "gk_reorth": _golub_kahan(True), "gk_short": _golub_kahan(False)}
BAD_INPUTS = [(name, case) for case in ("k_max=0", "poles=None", "b=nan") for name in ENGINES
              if case != "poles=None" or not name.startswith("gk_")]


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


CHECKED_INPUTS = {
    "b_of_length_m": lambda b, ref: (np.ones(30), ref, 4),
    "b_as_a_column": lambda b, ref: (b[:, None], ref, 4),
    "b_with_inf": lambda b, ref: (np.where(np.arange(20) == 3, np.inf, b), ref, 4),
    "reference_of_length_7": lambda b, ref: (b, ref[:7], 4),
    "reference_all_nan": lambda b, ref: (b, np.full(30, np.nan), 4),
    "reference_as_a_row": lambda b, ref: (b, ref[None, :], 4),
    "k_max=2.5": lambda b, ref: (b, ref, 2.5),
    "k_max=True": lambda b, ref: (b, ref, True),
}


@pytest.mark.parametrize("engine,case", [(engine, case) for engine in ENGINES
                                         for case in CHECKED_INPUTS])
def test_engines_check_inputs_before_any_product(engine, case):
    # b must be a finite vector of length n, the reference one of length m and
    # k_max an integer, not a bool; each is refused before A or A^T is applied once
    op, b = seeded_problem(30, 20, "logspace", 0.5, 3.0, 0)
    ref = gmf_apply_reference(F, op.dense, b)
    products = []
    matvec, rmatvec = op._matvec, op._rmatvec
    op._matvec = lambda v: products.append("A") or matvec(v)
    op._rmatvec = lambda u: products.append("At") or rmatvec(u)
    b, ref, k_max = CHECKED_INPUTS[case](b, ref)
    poles = si_optimal_pole(0.5, 3.0, 6)
    with pytest.raises(ArgumentError):
        ENGINES[engine](op, b, poles, k_max, reference=ref)
    assert products == []


# every count the package takes, as a call of the count alone, and the least
# value the count takes
COUNTS = {
    "polynomial_poles": (lambda k: polynomial_poles(k), 1),
    "extended_poles": (lambda k: extended_poles(k), 1),
    "si_optimal_pole": (lambda k: si_optimal_pole(0.1, 10.0, k), 1),
    "require_poles": (lambda k: require_poles(polynomial_poles(3), k), 1),
    "singular_profile": (lambda k: singular_profile("logspace", k, 1.0, 2.0), 1),
    "odd_monomial": (lambda k: odd_monomial(k), 1),
    "operator_rows": (lambda k: LinearOperator.from_callables(k, 2, np.negative, np.negative), 1),
    "operator_cols": (lambda k: LinearOperator.from_callables(2, k, np.negative, np.negative), 1),
    "synthesize_m": (lambda k: synthesize_test_matrix(k, 1, singular_profile(
        "logspace", 1, 1.0, 2.0), 0), 1),
    "synthesize_n": (lambda k: synthesize_test_matrix(1, k, singular_profile(
        "logspace", 1, 1.0, 2.0), 0), 1),
    "polynomial_bound_curve": (lambda k: polynomial_bound_curve(F, 0.1, 10.0, k), 1),
    "rational_bound_curve": (lambda k: rational_bound_curve(
        F, polynomial_poles(3), 0.1, 10.0, k), 1),
    "quasi_optimal_rational_bound": (lambda k: quasi_optimal_rational_bound(
        F, polynomial_poles(3), 0.1, 10.0, k), 1),
    "si_style_bound": (lambda k: si_style_bound(0.1, 10.0, -1.0, 1.0, k), 0),
    "si_closed_form_bound": (lambda k: si_closed_form_bound(0.1, 10.0, 1.0, k), 0),
}


@pytest.mark.parametrize("value", ["below", 2.5, True, np.True_, 2.0, "2"])
@pytest.mark.parametrize("name", COUNTS)
def test_every_count_takes_one_rule(name, value):
    # an integer of at least its least value, never a bool, a float (even a
    # whole one) or a string: refused with ArgumentError, before any work
    call, least = COUNTS[name]
    with pytest.raises(ArgumentError, match="must be an integer >="):
        call(least - 1 if value == "below" else value)
    call(least)
    call(np.int64(least + 1))


# every real-number argument of an interval, a pole, xi or M, as a call of the
# number alone, and a value the call takes
NUMBERS = {
    "si_optimal_pole_min": (lambda x: si_optimal_pole(x, 10.0, 2), 0.1),
    "si_optimal_pole_max": (lambda x: si_optimal_pole(0.1, x, 2), 10.0),
    "validate_interval_min": (lambda x: PoleSequence([-1.0]).validate_interval(x, 10.0), 0.1),
    "validate_interval_max": (lambda x: PoleSequence([-1.0]).validate_interval(0.1, x), 10.0),
    "rho_branches_min": (lambda x: rho_branches(x, 10.0, -1.0), 0.1),
    "rho_branches_max": (lambda x: rho_branches(0.1, x, -1.0), 10.0),
    "rho_branches_xi": (lambda x: rho_branches(0.1, 10.0, x), -1.0),
    "si_style_bound_xi": (lambda x: si_style_bound(0.1, 10.0, x, 1.0, 3), -1.0),
    "si_style_bound_M": (lambda x: si_style_bound(0.1, 10.0, -1.0, x, 3), 1.0),
    "si_closed_form_bound_min": (lambda x: si_closed_form_bound(x, 10.0, 1.0, 3), 0.1),
    "si_closed_form_bound_max": (lambda x: si_closed_form_bound(0.1, x, 1.0, 3), 10.0),
    "si_closed_form_bound_M": (lambda x: si_closed_form_bound(0.1, 10.0, x, 3), 1.0),
    "sample_h_sup": (lambda x: sample_h_sup(F, x), -1.0),
    "polynomial_bound_curve_min": (lambda x: polynomial_bound_curve(F, x, 10.0, 2), 0.1),
    "polynomial_bound_curve_max": (lambda x: polynomial_bound_curve(F, 0.1, x, 2), 10.0),
    "rational_bound_curve_min": (lambda x: rational_bound_curve(
        F, polynomial_poles(3), x, 10.0, 2), 0.1),
    "rational_bound_curve_max": (lambda x: rational_bound_curve(
        F, polynomial_poles(3), 0.1, x, 2), 10.0),
    "singular_profile_lo": (lambda x: singular_profile("logspace", 3, x, 10.0), 0.1),
    "singular_profile_hi": (lambda x: singular_profile("logspace", 3, 0.1, x), 10.0),
    "matrix_spec_lo": (lambda x: MatrixSpec(3, 3, "logspace", x, 10.0), 0.1),
    "matrix_spec_hi": (lambda x: MatrixSpec(3, 3, "logspace", 0.1, x), 10.0),
}


@pytest.mark.parametrize("value", ["0.1", "abc", True, np.True_, None, [1.0], 1j])
@pytest.mark.parametrize("name", NUMBERS)
def test_every_real_number_takes_one_rule(name, value):
    # a real number, never a bool, a string, a complex number or a list:
    # refused with ArgumentError, not cast by float() (si_optimal_pole("0.1",
    # "10", 2) gave the poles (-1, -1)) nor left to a bare ValueError/TypeError
    call, good = NUMBERS[name]
    with pytest.raises(ArgumentError, match="must be a real number"):
        call(value)
    call(good)
    call(np.float32(good))
    call(Fraction(good))


def test_require_number_returns_a_float():
    for value in (2, np.int64(2), np.float32(0.5), Fraction(1, 4), -math.inf, math.nan):
        number = require_number("x", value)
        assert type(number) is float and (number == value or math.isnan(value))
    with pytest.raises(ArgumentError, match="x must be a real number, got '1'"):
        require_number("x", "1")


@pytest.mark.parametrize("least", [0, 1, 3])
def test_require_count_returns_an_int(least):
    for value in (least, np.int32(least), np.uint64(least + 2)):
        count = require_count("k", value, least=least)
        assert type(count) is int and count == value
    with pytest.raises(ArgumentError, match=f"k must be an integer >= {least}, got {least - 1}"):
        require_count("k", least - 1, least=least)


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


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_never_call_norm_estimate(engine, monkeypatch):
    def refuse(self):
        raise AssertionError("an engine called LinearOperator.norm_estimate")

    monkeypatch.setattr(LinearOperator, "norm_estimate", refuse)
    op, b = seeded_problem(6, 9, "logspace", 0.5, 3.0, 0)
    ys = ENGINES[engine](op, b, si_optimal_pole(0.5, 3.0, 10), 10)[0]
    assert ys and all(np.all(np.isfinite(y)) for y in ys)


PUBLIC_CALLS = {
    "rational_full": lambda op, b, poles, k, ref: rational_gmf_approximate(
        F, op, b, poles, k, reference=ref),
    "rational_short": lambda op, b, poles, k, ref: rgk_run(
        F, op, b, poles, k, reference=ref)[::2],
}
POLES = {"shift_invert": si_optimal_pole(0.5, 3.0, 8), "polynomial": polynomial_poles(8)}


def assert_same_run(run, other):
    (ys, trace), (ys_other, trace_other) = run, other
    assert len(ys) == len(ys_other) == 8
    assert all(np.array_equal(y, y_other) for y, y_other in zip(ys, ys_other))
    assert trace == trace_other


@pytest.mark.parametrize("kind", POLES)
@pytest.mark.parametrize("name", PUBLIC_CALLS)
def test_table_entry_is_its_public_call(name, kind):
    assert set(TABLE) == set(PUBLIC_CALLS)
    op, b = seeded_problem(14, 11, "logspace", 0.5, 3.0, 2)
    ref = gmf_apply_reference(F, op.dense, b)
    assert_same_run(TABLE[name](F, op, b, POLES[kind], 8, reference=ref),
                    PUBLIC_CALLS[name](op, b, POLES[kind], 8, ref))


@pytest.mark.parametrize("reorth,name", [(True, "rational_full"), (False, "rational_short")])
def test_golub_kahan_is_the_table_with_every_pole_at_infinity(reorth, name):
    # what a config with {"kind": "polynomial"} poles runs, and gk_approximate
    op, b = seeded_problem(14, 11, "logspace", 0.5, 3.0, 2)
    ref = gmf_apply_reference(F, op.dense, b)
    assert_same_run(TABLE[name](F, op, b, POLES["polynomial"], 8, reference=ref),
                    gk_approximate(F, op, b, 8, reorth=reorth, reference=ref))


def converged_errors(ys, reference, tol=1e-12):
    """Relative errors from the first k at which the error is <= tol to the last k."""
    errs = [relative_error(y, reference) for y in ys]
    first = next((i for i, e in enumerate(errs) if e <= tol), None)
    assert first is not None, f"never converged: {errs}"
    return errs[first:]


ITEM_4 = pytest.mark.xfail(strict=True, reason="rgk_run misjudges invariance (ROADMAP item 4)")


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

    @pytest.mark.parametrize("m,n", [(1, 5), (2, 8), (3, 7)])
    def test_rgk_run_wide(self, m, n):
        # A q_{m+1} lies in span(P_m), but column m+1 of B still holds entries
        # above its zero diagonal: the run keeps it and ends exact. Its p = 0
        # column is no drift: compared with the identity it read 1.0
        op, b = seeded_problem(m, n, "chebyshev2", 0.5, 4.0, 3)
        ys, _, trace = rgk_run(F, op, b, si_optimal_pole(0.5, 4.0, m + 1), m + 1)
        assert len(ys) == m + 1
        assert relative_error(ys[-1], gmf_apply_reference(F, op.dense, b)) <= 1e-14
        assert trace.orthogonality_drift[-1] <= 1e-14

    # ROADMAP item 4: the Q side's b_5 is roundoff amplified by the shifted
    # solve and passes the breakdown test. With the SI pole of [0.5, 4],
    # rgk_run reaches 2.7e-8 at k = 5 and ends at 6.3e-5, where rational_full
    # reaches 4.2e-16 and GK 7.8e-16. With every pole at infinity
    # (rational_short's Golub-Kahan, and gk_approximate(reorth=False)) it takes
    # no solve, yet reaches 9.5e-8 at k = 5 and ends at 4.4e-4, where
    # rational_full stops at k = 5 with 4.0e-16. With the SI pole of [1, 4] the
    # P side turns invariant first, and the run ends exact on its last column
    @pytest.mark.parametrize("poles", [
        pytest.param(si_optimal_pole(0.5, 4.0, 8), id="shift_invert_lo_0.5", marks=ITEM_4),
        pytest.param(si_optimal_pole(1.0, 4.0, 8), id="shift_invert_lo_1.0"),
        pytest.param(polynomial_poles(8), id="polynomial", marks=ITEM_4)])
    def test_rgk_run_rank_deficient_square(self, poles):
        op, b = explicit_profile_problem([4, 3, 2, 1, 0, 0, 0, 0], 8, 8, 4)
        ys, _, _ = rgk_run(F, op, b, poles, 8)
        assert relative_error(ys[-1], gmf_apply_reference(F, op.dense, b)) <= 1e-12

    def test_rational_full_wide(self):
        op, b = seeded_problem(20, 30, "chebyshev2", 0.5, 4.0, 3)
        ys, _ = rational_gmf_approximate(F, op, b, si_optimal_pole(0.5, 4.0, 26), 26)
        assert max(converged_errors(ys, gmf_apply_reference(F, op.dense, b))) <= 1e-12


def probe_draw(index):
    """Draw ``index`` of a randomized step-cap probe: from default_rng(12345),
    m and n in 2..12, then singular values log-uniform from sigma_min in
    [1e-3, 1] to sigma_max in [1, 31.6] (both taken), then a seed for the
    matrix (and, plus one, for b). Returns (op, b, reference, poles) with the
    SI poles of [sigma_min, sigma_max] for k_max = n + 2."""
    rng = np.random.default_rng(12345)
    for _ in range(index + 1):
        m, n = int(rng.integers(2, 13)), int(rng.integers(2, 13))
        lo, hi = 10 ** rng.uniform(-3, 0), 10 ** rng.uniform(0, 1.5)
        sigma = np.sort(10 ** rng.uniform(np.log10(lo), np.log10(hi), min(m, n)))[::-1]
        sigma[0], sigma[-1] = hi, lo
        seed = int(rng.integers(2 ** 32))
    op = synthesize_test_matrix(m, n, SingularProfile(sigma), np.random.SeedSequence(seed))
    b = np.random.default_rng(seed + 1).standard_normal(n)
    return op, b, gmf_apply_factors(F, *op.factors, b), si_optimal_pole(lo, hi, n + 2)


class TestStepCap:
    """No run takes more steps than its Krylov spaces have dimensions.

    Past n steps (tall or square A) or m + 1 (wide A) a basis vector is
    roundoff. The short recurrence normalized it and ended far off the answer
    it had reached (draw 0, 9 x 4: 1.8e-13 at k = 4, then 0.15 at k = 6); on a
    wide A the full engine's secular equation met 0/0 (a RuntimeWarning).
    """

    @pytest.mark.parametrize("engine", sorted(TABLE))
    @pytest.mark.parametrize("draw", [0, 4, 13])
    def test_tall_or_square_run_ends_at_n(self, engine, draw):
        op, b, ref, poles = probe_draw(draw)
        assert op.rows >= op.cols
        ys, _ = TABLE[engine](F, op, b, poles, op.cols + 2)
        assert len(ys) == op.cols
        assert relative_error(ys[-1], ref) <= 1e-11

    # the short engine's wide runs still miss at the index (ROADMAP item 14)
    @pytest.mark.parametrize("engine,tol", [("rational_full", 1e-13), ("rational_short", 1e-6)])
    @pytest.mark.parametrize("draw", [2, 3, 36])
    def test_wide_run_ends_by_m_plus_one(self, engine, tol, draw):
        op, b, ref, poles = probe_draw(draw)
        assert op.rows < op.cols
        ys, _ = TABLE[engine](F, op, b, poles, op.cols + 2)
        assert len(ys) <= op.rows + 1
        assert relative_error(ys[-1], ref) <= tol


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


def gk_bidiagonal(op, b, k, monkeypatch):
    """B_k as a reorthogonalized GK run hands it to the bordered update."""
    columns, update = [], BorderedSvd.update
    monkeypatch.setattr(BorderedSvd, "update",
                        lambda self, c, f: columns.append(c.copy()) or update(self, c, f))
    gk_approximate(F, op, b, k, reorth=True)
    monkeypatch.undo()
    B = np.zeros((len(columns), len(columns)))
    for j, column in enumerate(columns):
        B[:j + 1, j] = column
    return B


class TestBorderedSvd:
    """The update of the SVD of B_k against a dense SVD of every B_k, f = sqrt."""

    def check(self, B):
        err, ref, orth = update_defects(B, F)
        assert np.max(err / ref) <= 1e-12
        assert np.max(orth) <= 1e-12

    def test_golub_kahan_bidiagonal(self, monkeypatch):
        # the gk_reorth benchmark problem at seed 1, k = 1..300
        B = gk_bidiagonal(*seeded_problem(400, 400, "chebyshev2", 0.1, 10.0, 1), 300,
                          monkeypatch)
        assert B.shape == (300, 300)
        self.check(B)

    def test_clustered_singular_values(self, monkeypatch):
        # 8 clusters of 50 singular values, relative spread 1e-10: the Ritz
        # values cluster, and without the recomputed z the update loses U's
        # orthogonality (4.4e-6) and the agreement (6.7e-7)
        centers = np.geomspace(0.1, 10.0, 8)
        values = np.sort(np.outer(centers, 1.0 + 1e-10 * np.linspace(-1, 1, 50)).ravel())
        op, b = explicit_profile_problem(values[::-1], 400, 400, 2)
        self.check(gk_bidiagonal(op, b, 60, monkeypatch))

    def test_short_recurrence_columns(self):
        # the dense quasiseparable B_k of the short recurrence at benchmark
        # scale: every column is full, not one bidiagonal entry
        op, b = seeded_problem(300, 300, "logspace", 0.1, 10.0, 1)
        _, B, _ = rgk_run(F, op, b, si_optimal_pole(0.1, 10.0, 120), 120)
        self.check(reconstruct_dense(B))

    def test_breakdown_column(self):
        # rank 4: GK breaks down at k = 5 with the final column (beta_4, 0)
        op, b = explicit_profile_problem([4, 3, 2, 1, 0, 0, 0, 0], 8, 8, 4)
        state = gk_init(b)
        for _ in range(4):
            gk_step(state, op)
        B = np.zeros((5, 5))
        B[:4, :4] = state.bidiagonal()
        B[3, 4] = state.beta[3]
        assert B[3, 4] > 0.0
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
