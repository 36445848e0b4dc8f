import math
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gmfkrylov import (ArgumentError, GramLanczos, LinearOperator, PoleSequence,
                       ScalarFunction, builtin, extended_poles, gk_init, gk_step,
                       gmf_apply_factors, gmf_apply_reference, load_user_poles,
                       polynomial_poles, rational_gmf_approximate, rgk_run,
                       si_optimal_pole, solve_shifted_gram)
from gmfkrylov import operators, rational
from gmfkrylov.operators import GRAM_SOLVE_RTOL, KrylovBasis, ShiftedGram

from conftest import explicit_profile_problem, record_eighs, record_factors, seeded_problem
from oracles import pencil, project, rational_arnoldi


def explicit_rational_basis(op, b, poles, k):
    """Orthonormal basis of the rational space of (A^T A, b) from dense solves:
    each new direction is (A^T A - xi I)^{-1} v_j (A^T A v_j for xi = inf) of
    the last column v_j; a QR keeps every leading span."""
    M = op.dense.T @ op.dense
    V = (b / np.linalg.norm(b))[:, None]
    for xi in poles[:k - 1]:
        v = V[:, -1]
        w = M @ v if math.isinf(xi) else np.linalg.solve(M - xi * np.eye(len(b)), v)
        V = np.linalg.qr(np.column_stack((V, w)))[0]
    return V


class TestRationalArnoldi:
    def test_infinite_poles_match_polynomial_lanczos(self):
        op, b = seeded_problem(14, 10, "logspace", 0.5, 3.0, 0)
        k = 5
        basis = rational_arnoldi(op, b, polynomial_poles(k), k)
        state = gk_init(b)
        for _ in range(k):
            gk_step(state, op)
        Q_gk = np.column_stack(state.Q[:k])
        angles = np.linalg.svd(basis.Q.T @ Q_gk, compute_uv=False)
        assert np.all(angles >= 1.0 - 1e-8)

    def test_extended_poles_capture_gram_inverse(self):
        # poles (inf, 0): after the zero-pole step the span contains (A^T A)^{-1} b
        op, b = seeded_problem(10, 10, "logspace", 0.5, 3.0, 1)
        Q = rational_arnoldi(op, b, extended_poles(2), 3).Q
        target = np.linalg.solve(op.dense.T @ op.dense, b)
        proj = Q @ (Q.T @ target)
        assert np.linalg.norm(proj - target) <= 1e-8 * np.linalg.norm(target)

    def test_pencil_residual(self):
        op, b = seeded_problem(20, 20, "logspace", 1.0, 5.0, 5)
        poles = si_optimal_pole(1.0, 5.0, 10)
        Q = rational_arnoldi(op, b, poles, 10).Q
        assert pencil(op, Q, poles)[1] <= 1e-9
        assert np.linalg.norm(np.eye(10) - Q.T @ Q, 2) <= 1e-12

    def test_pencil_symmetric_tridiagonal(self):
        # H is recovered from Q alone; the recurrence's own coefficients are not read
        op, b = seeded_problem(20, 20, "logspace", 1.0, 5.0, 5)
        poles = PoleSequence((-1.5, -3.0, -0.7, -5.0, -2.2, -9.1, -0.3, -4.4, -1.1))
        H, residual = pencil(op, rational_arnoldi(op, b, poles, 10).Q, poles)
        top = H[:9, :]
        off = top - np.tril(np.triu(top, -1), 1)
        assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(top)
        assert np.linalg.norm(top - top.T) <= 1e-8 * np.linalg.norm(top)
        assert np.abs(H[9, :8]).max() <= 1e-8 * np.linalg.norm(top)
        assert residual <= 1e-9

    @pytest.mark.parametrize("poles", [
        extended_poles(10),
        PoleSequence((0.0, -1.5, math.inf, -3.0, 0.0, -0.7, math.inf, -2.0, -1.0)),
        PoleSequence((30.0, -1.5, 40.0, math.inf, -3.0, 50.0, -0.7, -2.0, 60.0)),
    ], ids=["extended", "zero_finite_inf", "positive"])
    def test_pencil_of_zero_and_positive_poles(self, poles):
        # every leading span(Q_j) is the rational Krylov space of its poles
        op, b = seeded_problem(20, 20, "logspace", 1.0, 5.0, 5)
        Q = rational_arnoldi(op, b, poles, 10).Q
        assert Q.shape[1] == 10
        assert np.linalg.norm(np.eye(10) - Q.T @ Q, 2) <= 1e-12
        V = explicit_rational_basis(op, b, poles, 10)
        for j in range(1, 11):
            assert np.linalg.svd(Q[:, :j].T @ V[:, :j], compute_uv=False).min() >= 1 - 1e-12, j
        if not poles.has_zero:
            H, residual = pencil(op, Q, poles)
            assert residual <= 1e-9
            assert np.abs(np.tril(H, -2)).max() <= 1e-9 * np.linalg.norm(H)

    def test_nonfinite_start_vector_raises(self):
        op, b = seeded_problem(10, 10, "logspace", 0.5, 3.0, 0)
        b[2] = np.nan
        with pytest.raises(ArgumentError):
            GramLanczos(op, b, polynomial_poles(4))

    def test_invariance_truncates(self):
        op = LinearOperator.from_dense(np.diag([2.0, 1.0]))
        basis = rational_arnoldi(op, np.ones(2), polynomial_poles(5), 5)
        assert basis.breakdown and basis.Q.shape[1] == 2

    def test_pole_exhaustion_raises(self):
        op, b = seeded_problem(6, 6, "logspace", 0.5, 2.0, 0)
        with pytest.raises(ArgumentError):
            rational_arnoldi(op, b, polynomial_poles(2), 5)


class TestProject:
    def test_orthogonal_matrix_unit_singular_values(self):
        # any orthonormal Q projects an orthogonal A to unit singular values
        op, _ = seeded_problem(6, 6, "chebyshev2", 1.0, 1.0, 4)
        Q = operators._haar_from_rng(6, np.random.default_rng(12))[:, :4]
        sv = np.linalg.svd(project(op, Q).B, compute_uv=False)
        assert sv == pytest.approx(np.ones(4), abs=1e-12)

    def test_matches_explicit_projection(self):
        op, b = seeded_problem(5, 5, "chebyshev2", 1.0, 5.0, 7)
        Q = rational_arnoldi(op, b, polynomial_poles(3), 3).Q
        pj = project(op, Q)
        explicit = pj.P.T @ op.dense @ Q
        assert np.abs(pj.B - explicit).max() <= 1e-10 * op.norm_estimate()
        assert np.all(np.diag(pj.B) >= 0)
        assert np.abs(np.tril(pj.B, -1)).max() <= 1e-13 * op.norm_estimate()


class TestRationalApproximation:
    def test_identity_exact_at_k1(self):
        op, b = seeded_problem(9, 7, "logspace", 0.5, 4.0, 2)
        ys, _ = rational_gmf_approximate(builtin("identity"), op, b,
                                         polynomial_poles(1), 1)
        assert ys[0] == pytest.approx(op.dense @ b, rel=1e-13)

    def test_single_pole_rational_exact(self):
        # f(z) = z^3/(z^2 - xi) lies in the space at k = 2
        op, b = seeded_problem(9, 7, "logspace", 0.5, 3.0, 3)
        xi = -1.5
        f = ScalarFunction("r", lambda z: z ** 3 / (z * z - xi))
        ref = gmf_apply_reference(f, op.dense, b)
        _, tr = rational_gmf_approximate(f, op, b, PoleSequence((xi, xi)), 2,
                                         reference=ref)
        assert tr.errors[-1] <= 1e-10

    def test_rational_exactness_family(self):
        # f(z) = z^(2l-1)/q(z^2) is exact at k for l = 1..k
        op, b = seeded_problem(10, 8, "logspace", 0.5, 3.0, 5)
        xis = (-1.5, -3.0)
        for ell in (1, 2, 3):
            def f_eval(z, e=ell):
                return z ** (2 * e - 1) / ((z * z - xis[0]) * (z * z - xis[1]))

            f = ScalarFunction(f"r{ell}", f_eval)
            ref = gmf_apply_reference(f, op.dense, b)
            _, tr = rational_gmf_approximate(f, op, b, PoleSequence(xis), 3,
                                             reference=ref)
            assert tr.errors[-1] <= 1e-9, ell

    def test_interlacing_across_pole_kinds(self):
        op, b = seeded_problem(22, 22, "logspace", 0.4, 6.0, 6)
        for poles in (polynomial_poles(8), extended_poles(8),
                      si_optimal_pole(0.4, 6.0, 8)):
            sv = np.linalg.svd(project(op, rational_arnoldi(op, b, poles, 8).Q).B,
                               compute_uv=False)
            assert sv.max() <= 6.0 + 1e-10 and sv.min() >= 0.4 - 1e-10, poles.poles

    def test_projected_gram_positive_definite(self):
        op, b = seeded_problem(15, 15, "logspace", 0.5, 4.0, 7)
        Q = rational_arnoldi(op, b, si_optimal_pole(0.5, 4.0, 8), 8).Q
        J = Q.T @ (op.dense.T @ op.dense) @ Q
        assert np.linalg.eigvalsh(J).min() > 0

    def test_projected_gram_quasiseparable(self):
        # off-diagonal blocks of J - diag(0, xi_1, ..., xi_k) have rank 1
        op, b = seeded_problem(20, 20, "logspace", 0.5, 4.0, 8)
        xis = (-1.0, -2.0, -4.0, -8.0, -0.5, -3.3, -6.1)
        Q = rational_arnoldi(op, b, PoleSequence(xis), 8).Q
        J = Q.T @ (op.dense.T @ op.dense) @ Q
        S = J - np.diag((0.0,) + xis)
        nJ = np.linalg.norm(J, 2)
        for i in range(1, 8):
            block = S[:i, i:]
            sv = np.linalg.svd(block, compute_uv=False)
            if sv.size > 1:
                assert sv[1] <= 1e-8 * nJ, i


class TestShortMode:
    def test_short_engine_stays_orthonormal_at_desk_scale(self):
        op, b = seeded_problem(24, 24, "logspace", 0.5, 5.0, 10)
        for poles in (polynomial_poles(10), si_optimal_pole(0.5, 5.0, 10),
                      PoleSequence((-1.5, -3.0, -0.7, -5.0, -2.2, -9.1, -0.3,
                                    -4.4, -1.1))):
            eng = GramLanczos(op, b, poles, orthogonalize="short")
            cols = [eng.q]
            for _ in range(9):
                q = eng.advance()
                if q is None:
                    break
                cols.append(q)
            Q = np.column_stack(cols)
            defect = np.linalg.norm(np.eye(Q.shape[1]) - Q.T @ Q)
            assert defect <= 1e-10, poles.poles
            assert eng.columns is None

    def test_zero_pole_mix_keeps_every_column_orthonormal(self):
        # a zero pole leaves no short Q recurrence: each candidate is cleaned
        # against every stored column, so Q is as orthonormal as the full one
        op, b = seeded_problem(200, 200, "logspace", 0.1, 10.0, 1)
        choice = np.random.default_rng(0).choice([0.0, math.inf, -0.5, -2.0, -7.0], 39)
        eng = GramLanczos(op, b, PoleSequence(tuple(choice)), orthogonalize="short")
        cols = [eng.q]
        while eng.count < 40:
            cols.append(eng.advance())
        Q = np.column_stack(cols)
        assert np.array_equal(eng.columns.filled.T, Q)
        assert np.linalg.norm(np.eye(40) - Q.T @ Q, 2) <= 1e-13


def _count_operations(monkeypatch, op):
    """Count op.apply, op.applyt (also inside gram_apply and the residual
    checks) and the shifted solves the rational engines call."""
    counts = {"apply": 0, "applyt": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(op, "apply", counted("apply", op.apply))
    monkeypatch.setattr(op, "applyt", counted("applyt", op.applyt))
    monkeypatch.setattr(rational, "solve_shifted_gram",
                        counted("solve", rational.solve_shifted_gram))
    return counts


class TestOneSolvePerStep:
    K = 20

    @pytest.mark.parametrize("engine", [rgk_run, rational_gmf_approximate],
                             ids=["short", "full"])
    def test_repeated_pole_counts(self, monkeypatch, engine):
        # one solve per step (two at the first), A q_j formed once and shared
        # with M q_j = A^T (A q_j). On a dense payload a checked solve
        # multiplies by the cached A^T A and takes no operator product. The
        # short recurrence's repeated-pole steps solve through the LU alone and
        # check with A q_{j+1} and M q_{j+1}, which the next step reuses, so
        # that engine also forms M q_K. Every solve of either engine is one LU
        # solve, checked or not
        op, b = seeded_problem(40, 40, "logspace", 0.5, 3.0, 11)
        counts = _count_operations(monkeypatch, op)
        factor_solves, factor_solve = [], ShiftedGram.factor_solve
        monkeypatch.setattr(ShiftedGram, "factor_solve",
                            lambda *args: factor_solves.append(1) or factor_solve(*args))
        ys = engine(builtin("sqrt"), op, b, si_optimal_pole(0.5, 3.0, self.K),
                    self.K)[0]
        assert len(ys) == self.K
        short = engine is rgk_run
        assert counts == {"apply": self.K, "applyt": self.K if short else self.K - 1,
                          "solve": 2 if short else self.K}
        assert len(factor_solves) == self.K

    @pytest.mark.parametrize("engine", [rgk_run, rational_gmf_approximate],
                             ids=["short", "full"])
    def test_distinct_pole_counts(self, monkeypatch, engine):
        op, b = seeded_problem(40, 40, "logspace", 0.5, 3.0, 11)
        counts = _count_operations(monkeypatch, op)
        poles = PoleSequence(tuple(-np.geomspace(0.3, 9.0, self.K - 1)))
        ys = engine(builtin("sqrt"), op, b, poles, self.K)[0]
        assert len(ys) == self.K
        assert counts == {"apply": self.K, "applyt": self.K - 1,
                          "solve": 2 * (self.K - 1)}

    def test_repeated_pole_solve_returns_minus_q(self):
        # the identity behind the skipped solve: with delta = 1/xi,
        # (M - xi I)^{-1} (-xi (delta M q - q)) = -q
        op, _ = seeded_problem(40, 40, "logspace", 0.5, 3.0, 12)
        xi = si_optimal_pole(0.5, 3.0, 1)[0]
        rng = np.random.default_rng(12)
        for _ in range(5):
            q = rng.standard_normal(op.cols)
            q /= np.linalg.norm(q)
            y = solve_shifted_gram(op, xi, -xi * ((1.0 / xi) * op.gram_apply(q) - q))
            assert np.linalg.norm(y + q) <= 1e-13


class TestSolverCache:
    """Each new pole first drops the solvers, with their LU factors, of the
    run's earlier poles that no remaining pole uses; no shift is factored
    twice. An earlier pole that recurs after a new one makes the engine take
    the one eigendecomposition that every shift shares. Each run decides from
    its own poles, whatever other runs do on the operator."""

    @pytest.fixture
    def factors(self, monkeypatch):
        return record_factors(monkeypatch)

    @pytest.mark.parametrize("engine,lead", [(rgk_run, ()),
                                             (rational_gmf_approximate, ()),
                                             (rgk_run, (0.0,)),
                                             (rational_gmf_approximate, (0.0,))],
                             ids=["short", "full", "short_zero", "full_zero"])
    def test_distinct_poles_keep_one_factor(self, factors, monkeypatch, engine, lead):
        # no shift is live beside a new one, so each takes an LU and none an eigh
        eighs = record_eighs(monkeypatch)
        op, b = seeded_problem(300, 300, "logspace", 0.1, 10.0, 1)
        poles = PoleSequence(lead + tuple(-np.geomspace(0.05, 20.0, 59)))
        ys = engine(builtin("sqrt"), op, b, poles, len(poles) + 1)[0]
        assert len(ys) == len(poles) + 1
        assert list(op.shifted_grams) == [poles[-1]]
        assert len(factors) == len(poles)
        assert not eighs and op.gram_eigh is None

    @pytest.mark.parametrize("engine", [rgk_run, rational_gmf_approximate],
                             ids=["short", "full"])
    def test_cycled_poles_share_one_eigendecomposition(self, factors, monkeypatch, engine):
        # -0.1 is factored by LU; at -1 the engine finds it live, takes the one
        # eigendecomposition of A^T A that every later shift solves with, and
        # so releases that LU
        eighs = record_eighs(monkeypatch)
        op, b = seeded_problem(300, 300, "logspace", 0.1, 10.0, 1)
        poles = PoleSequence((-0.1, -1.0, -10.0) * 8 + (-3.0,))
        ys = engine(builtin("sqrt"), op, b, poles, 26)[0]
        assert len(ys) == 26
        # -3 comes last: it drops the cycle, which no later pole uses
        assert list(op.shifted_grams) == [-3.0]
        assert op.gram_eigh is not None
        assert (len(factors), len(eighs)) == (1, 1)
        # a second run on the operator factors nothing again
        engine(builtin("sqrt"), op, b, poles, 24)
        assert sorted(op.shifted_grams) == [-10.0, -3.0, -1.0, -0.1]
        assert all(solver._lu is None for solver in op.shifted_grams.values())
        assert (len(factors), len(eighs)) == (1, 1)

    def test_interleaved_runs_keep_their_factors(self, factors):
        # each run's single pole is never new after its first step, so neither
        # drops the other's solver (deciding from the operator's solvers, each
        # run found its pole dropped by the other at every step: 30 LUs)
        op, b = seeded_problem(300, 300, "logspace", 0.1, 10.0, 1)
        runs = [GramLanczos(op, b, PoleSequence((xi,) * 15), orthogonalize="short")
                for xi in (-1.0, -3.0)]
        for _ in range(15):
            for run in runs:
                assert run.advance() is not None
        assert len(factors) == 2


def _factor_work(poles):
    """(LUs, eighs) a run of poles takes on a fresh dense operator: one LU per
    new finite pole, until one arrives while an earlier finite pole recurs
    later, where the run takes the shared eigh and no LU from then on."""
    lus = 0
    for j, xi in enumerate(poles):
        earlier = set(poles[:j]) - {math.inf}
        if xi != math.inf and xi not in earlier:
            if earlier & set(poles[j + 1:]):
                return lus, 1
            lus += 1
    return lus, 0


@given(poles=st.lists(st.sampled_from([-0.5, -1.0, -2.0, 0.0, math.inf]),
                      min_size=1, max_size=10))
def test_factor_work_follows_the_poles(poles):
    for engine in (rgk_run, rational_gmf_approximate):
        op, b = seeded_problem(12, 12, "logspace", 0.5, 4.0, 2)
        with pytest.MonkeyPatch.context() as mp:
            factors, eighs = record_factors(mp), record_eighs(mp)
            ys = engine(builtin("sqrt"), op, b, poles, len(poles) + 1)[0]
        assert len(ys) == len(poles) + 1
        assert (len(factors), len(eighs)) == _factor_work(poles)


class TestNegativeInfinitePole:
    """-inf is the pole at infinity, as inf is, given directly or in a pole file."""

    @pytest.mark.parametrize("engine", [rgk_run, rational_gmf_approximate],
                             ids=["short", "full"])
    @pytest.mark.parametrize("lines", [["-inf"] * 10, ["0", "-inf"] * 5],
                             ids=["polynomial", "extended"])
    def test_runs_as_the_pole_at_infinity(self, tmp_path, engine, lines):
        path = tmp_path / "poles.txt"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        runs = []
        for poles in (load_user_poles(path), PoleSequence(tuple(map(float, lines))),
                      PoleSequence(tuple(abs(float(x)) for x in lines))):
            op, b = seeded_problem(40, 40, "logspace", 0.5, 4.0, 3)
            runs.append(np.array(engine(builtin("sqrt"), op, b, poles, 11)[0]))
        assert len(runs[2]) == 11
        assert np.array_equal(runs[0], runs[2]) and np.array_equal(runs[1], runs[2])


def _record_rtols(monkeypatch):
    """The rtol of every shifted solve the rational engines make, in order."""
    rtols, solve = [], rational.solve_shifted_gram

    def recorded(op, xi, v, rtol=GRAM_SOLVE_RTOL, basis=None):
        rtols.append(rtol)
        return solve(op, xi, v, rtol, basis)

    monkeypatch.setattr(rational, "solve_shifted_gram", recorded)
    return rtols


def _matrix_free(op, product_s=0.0):
    """from_callables twin of op's dense payload, and the list its apply calls grow.

    ``product_s`` > 0 sleeps that long in each product, as a costly A would:
    then the basis's passes never outweigh the products and it grows as far
    as the solves ask."""
    A, calls = op.dense, []

    def matvec(v):
        calls.append(1)
        time.sleep(product_s)
        return A @ v

    return LinearOperator.from_callables(*A.shape, matvec, lambda u: A.T @ u), calls


@pytest.fixture
def bases(monkeypatch):
    """Every KrylovBasis the engines make, kept past the run that owns it."""
    made = []

    class Recorded(KrylovBasis):
        def __init__(self, op, q):
            super().__init__(op, q)
            made.append(self)

    monkeypatch.setattr(rational, "KrylovBasis", Recorded)
    return made


def _relative_gap(trace, reference):
    e, e_ref = np.array(trace.errors), np.array(reference.errors)
    assert e.size == e_ref.size
    return np.max(np.abs(e - e_ref) / e_ref)


class TestMatrixFreeEngines:
    """The engines on a from_callables twin of a dense problem: the full engine
    relaxes its shifted solves as y_k converges, the other paths do not."""
    K = 20

    @pytest.fixture
    def problem(self):
        op, b = seeded_problem(200, 200, "logspace", 0.1, 10.0, 5)
        f = builtin("sqrt")
        return f, op, _matrix_free(op)[0], b, si_optimal_pole(0.1, 10.0, self.K), \
            gmf_apply_factors(f, *op.factors, b)

    def test_full_engine_relaxes_and_tracks_dense(self, monkeypatch, problem):
        f, op, mf, b, poles, y = problem
        rtols = _record_rtols(monkeypatch)
        _, dense = rational_gmf_approximate(f, op, b, poles, self.K, reference=y)
        assert len(rtols) == self.K and set(rtols) == {GRAM_SOLVE_RTOL}
        rtols.clear()
        _, free = rational_gmf_approximate(f, mf, b, poles, self.K, reference=y)
        assert len(rtols) == self.K
        assert rtols[0] == GRAM_SOLVE_RTOL
        assert rtols[-1] >= 100 * GRAM_SOLVE_RTOL
        assert max(rtols) <= 1e-5
        e_dense, e_free = np.array(dense.errors), np.array(free.errors)
        assert e_free.size == self.K
        assert np.max(np.abs(e_free - e_dense) / e_dense) <= 1e-4

    def test_short_engine_keeps_full_tolerance(self, monkeypatch, problem):
        f, _, mf, b, poles, y = problem
        rtols = _record_rtols(monkeypatch)
        ys = rgk_run(f, mf, b, poles, self.K, reference=y)[0]
        assert len(ys) == self.K
        assert len(rtols) == self.K and set(rtols) == {GRAM_SOLVE_RTOL}

    @pytest.mark.parametrize("poles, ceiling", [
        pytest.param(si_optimal_pole(0.1, 10.0, K), 250, id="si"),
        pytest.param(PoleSequence(tuple(-np.geomspace(0.05, 200.0, 30))), 400,
                     id="geomspace")])
    def test_shared_basis_bounds_the_products(self, problem, bases, poles, ceiling):
        # every solve first projects onto the run's one Lanczos basis of
        # K(A^T A, b); CG from zero in each solve takes 1,420 and 4,311
        # products with A on these two runs
        f, op, _, b, _, y = problem
        mf, calls = _matrix_free(op, product_s=1e-3)
        _, free = rational_gmf_approximate(f, mf, b, poles, len(poles), reference=y)
        assert len(calls) <= ceiling
        assert len(bases) == 1 and bases[0].columns.size <= op.cols
        _, dense = rational_gmf_approximate(f, op, b, poles, len(poles), reference=y)
        assert _relative_gap(free, dense) <= 1e-4

    def test_no_basis_outlives_its_run(self, problem, bases):
        # the engine owns the basis and hands it to each solve, and the
        # operator keeps no reference to it; the short engine keeps O(1)
        # vectors and builds none
        f, _, mf, b, poles, _ = problem
        rational_gmf_approximate(f, mf, b, poles, self.K)
        assert len(bases) == 1 and bases[0].columns.size > 1
        freed = weakref.ref(bases.pop())
        assert freed() is None and not hasattr(mf, "krylov_basis")
        rgk_run(f, mf, b, poles, self.K)
        assert not bases

    def test_second_engine_leaves_a_run_alone(self, problem):
        # an engine built on the operator mid-run shares nothing with the run:
        # the run's solves still start from its own basis (when the operator
        # referred to the newest engine's basis, the run's 15 steps took 1,002
        # products, not 162)
        _, op, _, b, poles, _ = problem
        runs = []
        for interrupt in (False, True):
            mf, calls = _matrix_free(op, product_s=1e-3)
            run = GramLanczos(mf, b, poles)
            qs = [run.q]
            for j in range(15):
                if interrupt and j == 5:
                    GramLanczos(mf, b, poles)
                qs.append(run.advance())
            runs.append((len(calls), np.array(qs)))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_refinement_covers_what_the_basis_misses(self, problem):
        # with 60 SI poles the right-hand sides leave the basis by more than the
        # relaxed tolerance; without the CG/MINRES passes on the true residual
        # the run raises SolveFailure
        f, op, _, b, _, y = problem
        poles = si_optimal_pole(0.1, 10.0, 60)
        _, dense = rational_gmf_approximate(f, op, b, poles, 60, reference=y)
        mf = _matrix_free(op, product_s=1e-3)[0]
        _, free = rational_gmf_approximate(f, mf, b, poles, 60, reference=y)
        assert len(free.errors) == 60
        assert free.errors[-1] <= 2 * dense.errors[-1]

    def test_pole_in_a_spectral_gap(self, problem):
        # xi = 25 lies between two squared singular values: MINRES alone
        # returned above the relaxed tolerance after four passes
        f, op, _, b, _, y = problem
        poles = PoleSequence((25.0, -1.0) * 6)
        _, dense = rational_gmf_approximate(f, op, b, poles, 12, reference=y)
        mf = _matrix_free(op, product_s=1e-3)[0]
        _, free = rational_gmf_approximate(f, mf, b, poles, 12, reference=y)
        assert _relative_gap(free, dense) <= 1e-6

    def test_basis_stops_where_its_passes_outweigh_the_products(self, bases):
        # a diagonal A costs O(n) a product, far below a pass's O(n m) a step: the
        # basis stops within a few columns and CG refines each solve from its
        # projection. The answers agree with a run whose products sleep 1 ms,
        # where the basis grows further.
        n, K = 20000, 10
        sigma = np.geomspace(0.1, 10.0, n)
        b = np.random.default_rng(0).standard_normal(n)
        f, poles = builtin("sqrt"), si_optimal_pole(0.1, 10.0, K)
        traces = []
        for product_s in (0.0, 1e-3):
            def matvec(v, product_s=product_s):
                time.sleep(product_s)
                return sigma * v

            op = LinearOperator.from_callables(n, n, matvec, lambda u: sigma * u)
            traces.append(rational_gmf_approximate(f, op, b, poles, K,
                                                   reference=np.sqrt(sigma) * b)[1])
        assert bases[0].columns.size < 50
        assert _relative_gap(*traces) <= 1e-4

    @pytest.mark.parametrize("poles", [si_optimal_pole(0.5, 4.0, 8),
                                       PoleSequence(tuple(-np.arange(1.0, 8.0)))],
                             ids=["si", "minus-1-to-7"])
    def test_basis_stops_at_invariance(self, bases, poles):
        # K(A^T A, b) has dimension 5 for this rank-4 matrix; pytest makes any
        # RuntimeWarning of the singular Gram matrix an error
        op, b = explicit_profile_problem([4, 3, 2, 1, 0, 0, 0, 0], 8, 8, 4)
        f = builtin("sqrt")
        mf = _matrix_free(op, product_s=1e-3)[0]
        _, trace = rational_gmf_approximate(f, mf, b, poles, 8,
                                            reference=gmf_apply_factors(f, *op.factors, b))
        assert bases[0].columns.size == 5 and bases[0].beta[-1] == 0.0
        assert trace.errors[-1] <= 2e-8

    def test_basis_never_exceeds_n_columns(self, bases):
        op, b = seeded_problem(20, 20, "logspace", 0.1, 10.0, 1)
        f = builtin("sqrt")
        mf = _matrix_free(op, product_s=1e-3)[0]
        _, trace = rational_gmf_approximate(f, mf, b, si_optimal_pole(0.1, 10.0, 40), 20,
                                            reference=gmf_apply_factors(f, *op.factors, b))
        assert bases[0].columns.size == 20 and bases[0].beta[-1] == 0.0
        assert trace.errors[-1] <= 1e-13

    def test_solve_the_basis_meets_takes_only_its_growth_products(self, problem):
        # the basis pass reads its residual from the products the basis keeps,
        # and scipy is given the dtype it would otherwise probe with a product:
        # a solve costs the basis's growth and nothing else
        _, op, _, b, _, _ = problem
        mf, calls = _matrix_free(op, product_s=1e-3)
        basis, M = KrylovBasis(mf, b / np.linalg.norm(b)), op.dense.T @ op.dense
        for xi, rtol in ((-1.0, GRAM_SOLVE_RTOL), (-0.3, 1e-6), (-1.0, 1e-8)):
            x = solve_shifted_gram(mf, xi, b, rtol, basis)
            assert len(calls) == len(basis.alpha)
            assert np.linalg.norm(M @ x - xi * x - b) <= rtol * np.linalg.norm(b)
        assert basis.columns.size < op.cols

    def test_kept_products_give_the_true_residual(self, problem, bases):
        # over a full run, M Q y from the kept products agrees with a fresh
        # product of each basis solve's x0
        f, op, _, b, poles, y = problem
        A, gaps = op.dense, []
        solve = KrylovBasis.solve

        def checked(basis, xi, v, target):
            x0, Mx0 = solve(basis, xi, v, target)
            gaps.append(np.linalg.norm(Mx0 - A.T @ (A @ x0)) / np.linalg.norm(v))
            return x0, Mx0

        mf = _matrix_free(op, product_s=1e-3)[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(KrylovBasis, "solve", checked)
            rational_gmf_approximate(f, mf, b, poles, self.K, reference=y)
        assert len(gaps) == self.K and max(gaps) <= 1e-12

    @staticmethod
    def _check_lanczos(basis, M):
        """Q orthonormal and T_m = Q_m^T M Q_m, both to roundoff of ||M||."""
        Q, m = basis.columns.filled, len(basis.alpha)
        T = (np.diag(basis.alpha) + np.diag(basis.beta[:m - 1], 1)
             + np.diag(basis.beta[:m - 1], -1))
        assert np.linalg.norm(Q @ Q.T - np.eye(len(Q)), 2) <= 1e-13
        norm_M = np.linalg.norm(M(np.eye(Q.shape[1])), 2)
        assert np.linalg.norm(T - Q[:m] @ M(Q[:m].T), 2) <= 1e-13 * norm_M

    def test_basis_stays_orthogonal_on_the_benchmark_problem(self, bases):
        # the three-term step and one pass keep Q as orthogonal as two full
        # passes did, on a 1000 x 1000 problem with 30 SI poles
        op, b = seeded_problem(1000, 1000, "logspace", 0.1, 10.0, 1)
        A, f = op.dense, builtin("sqrt")
        rational_gmf_approximate(f, _matrix_free(op)[0], b, si_optimal_pole(0.1, 10.0, 30), 30)
        assert bases[0].columns.size > 100
        self._check_lanczos(bases[0], lambda X: A.T @ (A @ X))

    def test_basis_stays_orthogonal_as_beta_nears_breakdown(self):
        # four clusters of width 1e-12 from 1e-4 to 100: once the clusters are
        # found, the three-term step's w can be smaller than the roundoff that
        # earlier, larger products leave along Q and still pass the breakdown
        # test, which is relative to ||M q_m||; a second pass removes what the
        # first leaves (one pass alone gave ||Q Q^T - I|| = 4)
        n, rng = 240, np.random.default_rng(0)
        d = np.repeat([1e-4, 1e-2, 1.0, 100.0], n // 4) * (1 + 1e-12 * rng.uniform(-1, 1, n))

        def matvec(v):
            time.sleep(1e-4)
            return np.sqrt(d) * v

        b = rng.standard_normal(n)
        basis = KrylovBasis(LinearOperator.from_callables(n, n, matvec, lambda u: np.sqrt(d) * u),
                            b / np.linalg.norm(b))
        basis.solve(-1.0, b, 0.0)
        beta = np.array(basis.beta)
        assert basis.columns.size > 200 and beta[beta > 0].min() <= 1e-16 * d.max()
        self._check_lanczos(basis, lambda X: d[:, None] * X)
