import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from gmfkrylov import (ConvergenceTrace, LinearOperator, PoleSequence,
                       QuasiseparableUpper, ScalarFunction, SolveFailure, builtin,
                       extended_poles, gk_init, gk_step, gmf_apply_reference,
                       polynomial_poles, rational, rational_gmf_approximate,
                       reconstruct_dense, rgk_run, rgk_step, short_recurrence,
                       si_optimal_pole)
from gmfkrylov.operators import ShiftedGram

from conftest import seeded_problem
from oracles import generators, project, rational_arnoldi


class TestStep:
    def test_first_step_is_plain_normalization(self):
        op = LinearOperator.from_dense(np.diag([3.0, 1.0]))
        q1 = np.ones(2) / np.sqrt(2.0)
        p, d, beta, gamma, x, fb = rgk_step(op.apply(q1), np.zeros((0, 2)), None, 0.0)
        assert d == pytest.approx(np.sqrt(5.0), rel=1e-15)
        assert p == pytest.approx(np.array([3.0, 1.0]) / np.sqrt(10.0))
        assert beta is None and gamma is None and not fb
        assert np.array_equal(x, np.zeros(2))

    def test_infinite_poles_reduce_to_golub_kahan(self):
        op, b = seeded_problem(30, 20, "chebyshev2", 1.0, 6.0, 9)
        _, B, _ = rgk_run(builtin("sqrt"), op, b, polynomial_poles(10), 10)
        state = gk_init(b)
        for _ in range(10):
            gk_step(state, op)
        assert np.abs(np.array(B.d) - np.array(state.alpha)).max() <= 1e-10
        assert np.abs(np.array(B.beta) - np.array(state.beta[:9])).max() <= 1e-10
        assert max(abs(g) for g in B.gamma) <= 1e-10


class TestAgainstFullOrthogonalization:
    def test_si_pole_entries_match(self):
        op, b = seeded_problem(20, 20, "logspace", 1.0, 5.0, 5)
        poles = si_optimal_pole(1.0, 5.0, 6)
        _, B, _ = rgk_run(builtin("sqrt"), op, b, poles, 4)
        Bf = project(op, rational_arnoldi(op, b, poles, 4).Q).B
        assert np.abs(reconstruct_dense(B) - Bf).max() <= 1e-9

    def test_reconstruction_matches_at_k5(self):
        op, b = seeded_problem(20, 20, "logspace", 1.0, 5.0, 5)
        poles = si_optimal_pole(1.0, 5.0, 6)
        _, B, _ = rgk_run(builtin("sqrt"), op, b, poles, 5)
        Bf = project(op, rational_arnoldi(op, b, poles, 5).Q).B
        assert np.abs(reconstruct_dense(B) - Bf).max() <= 1e-9

    def test_btb_is_projected_gram(self):
        op, b = seeded_problem(18, 18, "logspace", 0.5, 4.0, 3)
        poles = PoleSequence((-1.0, -2.5, -4.0, -7.0, -1.7, -3.1, -5.9))
        _, B, _ = rgk_run(builtin("sqrt"), op, b, poles, 8)
        Q = rational_arnoldi(op, b, poles, 8).Q
        J = Q.T @ (op.dense.T @ op.dense) @ Q
        Bd = reconstruct_dense(B)
        assert np.linalg.norm(Bd.T @ Bd - J) <= 1e-8 * np.linalg.norm(J)

    def test_offdiagonal_entries_nonvanishing(self):
        # below the invariance index every column beyond the first carries
        # at least one significant off-diagonal entry
        op, b = seeded_problem(18, 18, "logspace", 0.5, 4.0, 3)
        _, B, _ = rgk_run(builtin("sqrt"), op, b, si_optimal_pole(0.5, 4.0, 10), 10)
        Bd = reconstruct_dense(B)
        tol = 1e-12 * op.norm_estimate()
        for j in range(1, 10):
            assert np.abs(Bd[:j, j]).max() > tol, j


class TestReconstruction:
    def test_two_by_two(self):
        B = QuasiseparableUpper(d=[2.0, 3.0], beta=[0.5], gamma=[])
        assert reconstruct_dense(B) == pytest.approx(np.array([[2.0, 0.5],
                                                               [0.0, 3.0]]))

    def test_matches_entrywise_recursion(self):
        # the column-at-a-time form multiplies the same numbers as the
        # entry-by-entry recursion, so the results are equal, not just close
        rng = np.random.default_rng(4)
        k = 9
        B = QuasiseparableUpper(d=list(rng.uniform(1, 2, k)),
                                beta=list(rng.uniform(0.5, 1.5, k - 1)),
                                gamma=list(rng.uniform(-1, 1, k - 2)))
        ref = np.zeros((k, k))
        for j in range(k):
            ref[j, j] = B.d[j]
            if j >= 1:
                ref[j - 1, j] = B.beta[j - 1]
            if j >= 2:
                ref[j - 2, j] = B.gamma[j - 2]
            for i in range(j - 3, -1, -1):
                ref[i, j] = (B.gamma[j - 2] / B.beta[j - 2]) * ref[i, j - 1]
        assert np.array_equal(reconstruct_dense(B), ref)

    def test_infinite_poles_give_bidiagonal(self):
        op, b = seeded_problem(12, 9, "logspace", 0.5, 3.0, 1)
        _, B, _ = rgk_run(builtin("sqrt"), op, b, polynomial_poles(6), 6)
        Bd = reconstruct_dense(B)
        assert np.abs(np.triu(Bd, 2)).max() <= 1e-12 * op.norm_estimate()

    def test_generators_reproduce_strict_upper(self):
        op, b = seeded_problem(20, 20, "logspace", 0.5, 4.0, 6)
        poles = PoleSequence(tuple(np.linspace(-1.0, -8.0, 9)))
        _, B, _ = rgk_run(builtin("sqrt"), op, b, poles, 10)
        u, v = generators(B)
        Bd = reconstruct_dense(B)
        assert np.abs(np.triu(np.outer(u, v), 1) - np.triu(Bd, 1)).max() <= 1e-9


class TestRun:
    def test_identity_exact_at_k1(self):
        op, b = seeded_problem(9, 7, "logspace", 0.5, 3.0, 2)
        ys, _, _ = rgk_run(builtin("identity"), op, b, polynomial_poles(1), 1)
        assert ys[0] == pytest.approx(op.dense @ b, rel=1e-13)

    def test_quintic_exact_with_infinite_poles(self):
        op, b = seeded_problem(9, 7, "logspace", 0.5, 2.0, 4)
        f = builtin("z^5")
        ref = gmf_apply_reference(f, op.dense, b)
        _, _, tr = rgk_run(f, op, b, polynomial_poles(3), 3, reference=ref)
        assert tr.errors[-1] <= 1e-11

    @pytest.mark.parametrize("poles", [
        extended_poles(12),
        PoleSequence((-3.0,) * 6 + (0.0,) + (-3.0,) * 6),
        PoleSequence((-0.3, 0.0) + tuple(-np.geomspace(0.125, 7.2, 12)))],
        ids=["extended", "zero_after_repeats", "zero_before_distinct"])
    def test_extended_poles_match_full_orthogonalization(self, poles):
        # a sequence that holds a zero pole has no short Q recurrence: its
        # q_k are cleaned against every stored column, as in the full engine
        op, b = seeded_problem(24, 24, "logspace", 0.5, 6.0, 2)
        f = builtin("sqrt")
        ref = gmf_apply_reference(f, op.dense, b)
        ys_s, _, tr_s = rgk_run(f, op, b, poles, 12, reference=ref)
        ys_f, tr_f = rational_gmf_approximate(f, op, b, poles, 12, reference=ref)
        diffs = [np.linalg.norm(a - c) / np.linalg.norm(ref)
                 for a, c in zip(ys_s, ys_f)]
        assert max(diffs) <= 1e-8

    def test_drift_is_recorded(self):
        op, b = seeded_problem(16, 16, "logspace", 0.5, 4.0, 3)
        _, _, tr = rgk_run(builtin("sqrt"), op, b, si_optimal_pole(0.5, 4.0, 8), 8)
        assert len(tr.orthogonality_drift) == len(tr.ks)
        assert all(d >= 0 for d in tr.orthogonality_drift)

    def test_breakdown_stops_gracefully(self):
        op = LinearOperator.from_dense(np.diag([3.0, 1.0]))
        ys, B, tr = rgk_run(builtin("sqrt"), op, np.ones(2), polynomial_poles(6), 6)
        assert B.k == 2 and len(ys) == 2

    def test_long_run_difference_plateaus(self):
        # ill-conditioned interval with a precomputed near-optimal pole file:
        # the short-full difference stays small and stops growing once the
        # methods have converged
        import os
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        poles = None
        from gmfkrylov import load_user_poles
        poles = load_user_poles(os.path.join(here, "configs", "poles_shortfull.txt"))
        op, b = seeded_problem(500, 500, "logspace", 0.1, 100.0, 401)
        f = builtin("sqrt")
        ref = gmf_apply_reference(f, op.dense, b)
        ys_s, _, tr_s = rgk_run(f, op, b, poles, 40, reference=ref)
        ys_f, _ = rational_gmf_approximate(f, op, b, poles, 40)
        nr = np.linalg.norm(ref)
        diffs = [np.linalg.norm(a - c) / nr for a, c in zip(ys_s, ys_f)]
        assert max(diffs) <= 1e-6
        tail = diffs[-8:]
        assert max(tail) <= 1.5 * min(tail)   # growth has stopped


class TestFallback:
    def test_vanished_beta_uses_explicit_orthogonalization(self):
        op, b = seeded_problem(15, 15, "logspace", 0.5, 4.0, 1)
        # run three regular steps to obtain genuine q, p vectors
        from gmfkrylov import GramLanczos
        poles = si_optimal_pole(0.5, 4.0, 5)
        eng = GramLanczos(op, b, poles, orthogonalize="full")
        q1 = eng.q
        q2 = eng.advance()
        q3 = eng.advance()
        p1, d1, *_ = rgk_step(op.apply(q1), [], None, 0.0)
        p2, d2, b1, *_ = rgk_step(op.apply(q2), [p1], None, 0.0)
        w = op.apply(q3)
        # force the degenerate branch: beta_prev = 0 with stored history
        p3, d3, beta2, gamma1, x3, used = rgk_step(w, [p1, p2], b1 * p1, 0.0)
        assert used
        expected_x = (w @ p1) * p1 + (w @ p2) * p2
        assert x3 == pytest.approx(expected_x, abs=1e-12)
        resid = w - expected_x
        assert d3 == pytest.approx(np.linalg.norm(resid), rel=1e-12)


def _stored_columns(monkeypatch):
    """The p_k of every short-recurrence step, in order."""
    ps, step = [], short_recurrence.rgk_step

    def recorded(*args, **kwargs):
        out = step(*args, **kwargs)
        ps.append(out[0])
        return out

    monkeypatch.setattr(short_recurrence, "rgk_step", recorded)
    return ps


def _count_svds(monkeypatch):
    """Count every SVD and every 2-norm of a 2-d array the package takes."""
    counts = {"svd": 0}
    norm = np.linalg.norm

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts["svd"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            counts["svd"] += 1
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    monkeypatch.setattr(scipy.linalg, "svd", counted(scipy.linalg.svd))
    return counts


class TestLazyDrift:
    """The drift ||I - P_k^T P_k||_2 is taken when the trace is first read."""
    K = 20

    def run(self, monkeypatch):
        op, b = seeded_problem(60, 60, "logspace", 0.5, 4.0, 21)
        ps = _stored_columns(monkeypatch)
        counts = _count_svds(monkeypatch)
        _, _, trace = rgk_run(builtin("sqrt"), op, b, si_optimal_pole(0.5, 4.0, self.K),
                              self.K)
        assert len(ps) == len(trace.ks) == self.K
        return ps, counts, trace

    def test_no_svd_until_read(self, monkeypatch):
        _, counts, trace = self.run(monkeypatch)
        assert counts["svd"] == 0
        drift = trace.orthogonality_drift
        assert counts["svd"] == self.K
        assert trace.orthogonality_drift is drift and counts["svd"] == self.K

    def test_values_are_the_two_norm_of_the_defect(self, monkeypatch):
        # P_k^T P_k grown one column P_k^T p_k per step from a Fortran-ordered
        # P, as the loop grows it (one P_k^T P_k product rounds differently)
        ps, _, trace = self.run(monkeypatch)
        P = np.array(ps).T
        G = np.zeros((self.K, self.K))
        expected = []
        for k in range(1, self.K + 1):
            G[:k, k - 1] = G[k - 1, :k] = P[:, :k].T @ P[:, k - 1]
            expected.append(float(np.linalg.norm(np.eye(k) - G[:k, :k], 2)))
        assert trace.orthogonality_drift == expected
        assert trace.pairs("drift") == list(zip(range(1, self.K + 1), expected))

    def test_equality_compares_the_drift(self, monkeypatch):
        _, _, trace = self.run(monkeypatch)
        same = ConvergenceTrace(list(trace.ks), list(trace.errors), trace.gram.copy())
        assert same == trace
        other = ConvergenceTrace(list(trace.ks), list(trace.errors), trace.gram.copy())
        other.gram[0, 0] += 1e-3
        assert other != trace
        assert ConvergenceTrace(list(trace.ks), list(trace.errors)) != trace


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 30), tall=st.booleans(),
       pole_kind=st.sampled_from(["si", "distinct_negative"]), k=st.integers(1, 5))
def test_short_equals_full_for_small_k(seed, n, tall, pole_kind, k):
    # the short recurrence loses orthogonality only gradually: over the first
    # few steps both engines span the same space through the same dense solves
    rng = np.random.default_rng(seed)
    lo = 10.0 ** rng.uniform(-1.0, 0.0)
    hi = lo * 10.0 ** rng.uniform(0.3, 2.0)
    m = n + int(rng.integers(1, n + 1)) if tall else n
    op, b = seeded_problem(m, n, "logspace", lo, hi, seed)
    if pole_kind == "si":
        poles = si_optimal_pole(lo, hi, k)
    else:
        poles = PoleSequence(tuple(-lo * hi * 10.0 ** rng.uniform(-2.0, 2.0, k)))
    f = builtin("sqrt")
    ys_s, _, _ = rgk_run(f, op, b, poles, k)
    ys_f, _ = rational_gmf_approximate(f, op, b, poles, k)
    assert len(ys_s) == len(ys_f) == k
    for y_s, y_f in zip(ys_s, ys_f):
        assert np.linalg.norm(y_s - y_f) <= 1e-10 * np.linalg.norm(y_f)


SHAPES = [(60, 40), (40, 40), (40, 60)]


def _record(monkeypatch, name, keep):
    """Wrap rational.<name>; keep(args, result) is appended to the returned list
    for every call the engines make through that name."""
    calls, fn = [], getattr(rational, name)

    def recorded(*args):
        out = fn(*args)
        calls.append(keep(args, out))
        return out

    monkeypatch.setattr(rational, name, recorded)
    return calls


def _record_deferred(monkeypatch, error=0.0):
    """The (xi, rhs, y0) of every ShiftedGram.factor_solve and the checked
    residual / ||rhs|| of every ShiftedGram.require that the engines call
    themselves, not inside the checked ShiftedGram.solve; each such y0 is
    scaled by 1 + error."""
    solves, checks, inside = [], [], []
    solve, factor_solve, require = ShiftedGram.solve, ShiftedGram.factor_solve, ShiftedGram.require

    def checked(self, *args):
        inside.append(self)
        try:
            return solve(self, *args)
        finally:
            inside.pop()

    def unchecked(self, v):
        x = factor_solve(self, v)
        if not inside:
            x = (1.0 + error) * x
            solves.append((self.xi, v, x))
        return x

    def check(self, r, v, rtol):
        if not inside:
            checks.append(np.linalg.norm(r) / np.linalg.norm(v))
        return require(self, r, v, rtol)

    monkeypatch.setattr(ShiftedGram, "solve", checked)
    monkeypatch.setattr(ShiftedGram, "factor_solve", unchecked)
    monkeypatch.setattr(ShiftedGram, "require", check)
    return solves, checks


class TestRepeatedPoleCheck:
    """A short step on a dense payload whose pole repeats solves through the
    LU alone and checks y0 with the products of q_{j+1} the next step uses."""
    K = 12

    @pytest.fixture(params=SHAPES, ids=["tall", "square", "wide"])
    def problem(self, request):
        m, n = request.param
        return seeded_problem(m, n, "logspace", 0.5, 4.0, 31)

    def test_checked_residuals_are_those_through_a(self, monkeypatch, problem):
        op, b = problem
        solves, checks = _record_deferred(monkeypatch)
        rgk_run(builtin("sqrt"), op, b, si_optimal_pole(0.5, 4.0, self.K), self.K)
        assert len(solves) == len(checks) == self.K - 2
        A = op.dense
        for (xi, rhs, y0), checked in zip(solves, checks):
            direct = np.linalg.norm(A.T @ (A @ y0) - xi * y0 - rhs) / np.linalg.norm(rhs)
            assert abs(checked - direct) <= 1e-12

    @pytest.mark.parametrize("j", ["first", "middle", "last"])
    def test_pole_at_a_squared_singular_value_fails(self, problem, j):
        op, b = problem
        sigma = op.factors[1]
        xi = sigma[{"first": 0, "middle": sigma.size // 2, "last": -1}[j]] ** 2
        with pytest.raises(SolveFailure):
            rgk_run(builtin("sqrt"), op, b, PoleSequence((xi,) * self.K), self.K)

    def test_exactly_zero_pivot_fails(self):
        # A^T A - 4 I is diagonal with an exact zero: the LU has a zero pivot
        op = LinearOperator.from_dense(np.diag([3.0, 2.0, 1.0, 0.5]))
        with pytest.raises(SolveFailure, match="residual inf"):
            rgk_run(builtin("sqrt"), op, np.ones(4), PoleSequence((4.0,) * 4), 4)
        with pytest.raises(SolveFailure, match="residual inf"):
            ShiftedGram(op, 4.0).factor_solve(np.ones(4))

    @pytest.mark.parametrize("error", [1e-12, 1e-8])
    def test_a_perturbed_solve_is_caught(self, monkeypatch, problem, error):
        # scaling y0 by 1 + e adds e ||rhs|| to its residual: the check, at
        # 1e-10 ||rhs||, must pass the first and refuse the second
        op, b = problem
        solves, _ = _record_deferred(monkeypatch, error)
        run = lambda: rgk_run(builtin("sqrt"), op, b, si_optimal_pole(0.5, 4.0, self.K),
                              self.K)
        if error < 1e-10:
            assert len(run()[0]) == self.K
        else:
            with pytest.raises(SolveFailure):
                run()
        # the first deferred solve passes or fails in its own step, before the next
        assert len(solves) == (self.K - 2 if error < 1e-10 else 1)

    @pytest.mark.parametrize("k", [8, 16])
    def test_gram_matrix_is_read_only_in_the_first_step(self, monkeypatch, problem, k):
        # one read to factor A^T A - xi I and one per checked solve of the first
        # step; every later step checks through A
        op, b = problem
        reads, gram_matrix = [], op.gram_matrix
        monkeypatch.setattr(op, "gram_matrix", lambda: reads.append(1) or gram_matrix())
        ys = rgk_run(builtin("sqrt"), op, b, si_optimal_pole(0.5, 4.0, k), k)[0]
        assert len(ys) == k
        assert len(reads) == 3

    @pytest.mark.parametrize("twin", ["matrix_free_short", "dense_full"])
    def test_other_paths_check_through_solve_shifted_gram(self, monkeypatch, problem, twin):
        op, b = problem
        A = op.dense
        solves = _record(monkeypatch, "solve_shifted_gram", lambda a, x: None)
        factor_solves, _ = _record_deferred(monkeypatch)
        poles = si_optimal_pole(0.5, 4.0, self.K)
        if twin == "dense_full":
            ys = rational_gmf_approximate(builtin("sqrt"), op, b, poles, self.K)[0]
        else:
            free = LinearOperator.from_callables(*A.shape, lambda v: A @ v,
                                                 lambda u: A.T @ u)
            ys = rgk_run(builtin("sqrt"), free, b, poles, self.K)[0]
        assert len(ys) == self.K
        assert (len(solves), len(factor_solves)) == (self.K, 0)


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 30), tall=st.booleans(),
       p=st.sampled_from([1, 2]), extra=st.integers(0, 3))
def test_rational_exactness_with_a_repeated_pole(seed, n, tall, p, extra):
    # f(z) = z / (z^2 - xi)^p gives f◇(A) b = A (A^T A - xi I)^{-p} b, which lies
    # in A Q_k once Q_k spans (A^T A - xi I)^{-i} b for i <= p, that is k >= p + 1
    rng = np.random.default_rng(seed)
    lo = 10.0 ** rng.uniform(-1.0, 0.0)
    hi = lo * 10.0 ** rng.uniform(0.3, 2.0)
    m = n + int(rng.integers(1, n + 1)) if tall else n
    op, b = seeded_problem(m, n, "logspace", lo, hi, seed)
    xi = -lo * hi * 10.0 ** rng.uniform(-2.0, 2.0)
    f = ScalarFunction(f"z/(z^2-xi)^{p}", lambda z: z / (z * z - xi) ** p)
    U, sigma, V = op.factors
    exact = U @ (sigma / (sigma ** 2 - xi) ** p * (V.T @ b))
    k = min(p + 2 + extra, n)
    for engine in (rgk_run, rational_gmf_approximate):
        ys = engine(f, op, b, PoleSequence((xi,) * k), k)[0]
        assert len(ys) == k
        for y in ys[p:]:
            assert np.linalg.norm(y - exact) <= 1e-10 * np.linalg.norm(exact)


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 30), tall=st.booleans(),
       extra=st.integers(0, 3))
def test_rational_exactness_with_distinct_poles(seed, n, tall, extra):
    # f(z) = z / ((z^2 - xi_1)(z^2 - xi_2)) gives f◇(A) b =
    # A (A^T A - xi_1 I)^{-1} (A^T A - xi_2 I)^{-1} b, which lies in A Q_k once
    # the poles xi_1, xi_2 have entered Q_k, that is k >= 3
    rng = np.random.default_rng(seed)
    lo = 10.0 ** rng.uniform(-1.0, 0.0)
    hi = lo * 10.0 ** rng.uniform(0.3, 2.0)
    m = n + int(rng.integers(1, n + 1)) if tall else n
    op, b = seeded_problem(m, n, "logspace", lo, hi, seed)
    xi1, xi2, *rest = -lo * hi * 10.0 ** rng.uniform(-2.0, 2.0, 2 + extra)
    f = ScalarFunction("z/((z^2-xi1)(z^2-xi2))", lambda z: z / ((z * z - xi1) * (z * z - xi2)))
    U, sigma, V = op.factors
    exact = U @ (sigma / ((sigma ** 2 - xi1) * (sigma ** 2 - xi2)) * (V.T @ b))
    k = 3 + extra
    for engine in (rgk_run, rational_gmf_approximate):
        ys = engine(f, op, b, PoleSequence((xi1, xi2, *rest)), k)[0]
        assert len(ys) == k
        for y in ys[2:]:
            assert np.linalg.norm(y - exact) <= 1e-10 * np.linalg.norm(exact)
