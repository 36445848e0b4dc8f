import ctypes
import gc
import math
import re
import sys
import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from gmfkrylov import (ArgumentError, LinearOperator, PoleSequence, ShiftedGram,
                       SingularProfile, SolveFailure, builtin, load_dense_matrix,
                       rational_gmf_approximate, rgk_run, save_dense_matrix,
                       singular_profile, solve_shifted_gram, synthesize_test_matrix)
from gmfkrylov import operators
from gmfkrylov.operators import GRAM_SOLVE_RTOL, KrylovBasis

from conftest import explicit_profile_problem, record_eighs, record_factors, seeded_problem
from oracles import adjointness_defect


class TestApply:
    def test_identity(self):
        op = LinearOperator.from_dense(np.eye(3))
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(op.apply(e1), e1)

    def test_diagonal(self):
        op = LinearOperator.from_dense(np.diag([2.0, 3.0]))
        assert np.allclose(op.apply([1.0, 1.0]), [2.0, 3.0])

    def test_wide_tiny_singular_direction(self):
        # 1x2 matrix: the start direction nearly in the null space
        op = LinearOperator.from_dense(np.array([[1.0, 0.0]]))
        eps = 1e-8
        assert op.apply([eps, 1.0]) == pytest.approx([eps])

    def test_dimension_mismatch(self):
        op = LinearOperator.from_dense(np.eye(3))
        with pytest.raises(ArgumentError):
            op.apply(np.ones(4))
        with pytest.raises(ArgumentError):
            op.applyt(np.ones(4))

    def test_adjointness_randomized(self):
        for seed in range(5):
            op, _ = seeded_problem(12, 8, "logspace", 0.5, 4.0, seed)
            assert adjointness_defect(op) <= 1e-12

    def test_adjointness_matrix_free(self):
        A = np.random.default_rng(0).standard_normal((9, 6))
        op = LinearOperator.from_callables(9, 6, lambda v: A @ v, lambda u: A.T @ u)
        assert adjointness_defect(op) <= 1e-12


SHAPES = [pytest.param(60, 40, id="tall"), pytest.param(40, 40, id="square"),
          pytest.param(40, 60, id="wide")]


class TestShiftedGramSolve:
    def test_identity_shift(self):
        op = LinearOperator.from_dense(np.eye(3))
        x = solve_shifted_gram(op, -1.0, np.array([1.0, 0.0, 0.0]))
        assert x == pytest.approx([0.5, 0.0, 0.0])

    def test_diagonal(self):
        op = LinearOperator.from_dense(np.diag([2.0, 3.0]))
        x = solve_shifted_gram(op, -2.0, np.ones(2))
        assert x == pytest.approx([1.0 / 6.0, 1.0 / 11.0])

    def test_against_dense_factorization(self):
        op, _ = seeded_problem(5, 5, "chebyshev2", 1.0, 5.0, 7)
        v = np.ones(5)
        x = solve_shifted_gram(op, -3.0, v)
        gram = op.dense.T @ op.dense
        expected = np.linalg.solve(gram + 3.0 * np.eye(5), v)
        assert x == pytest.approx(expected, rel=1e-12)
        assert np.linalg.norm(gram @ x + 3.0 * x - v) <= 1e-10 * np.linalg.norm(v)

    def test_zero_shift_is_gram_solve(self):
        op, _ = seeded_problem(6, 6, "logspace", 0.5, 3.0, 1)
        v = np.arange(1.0, 7.0)
        x = solve_shifted_gram(op, 0.0, v)
        assert op.gram_apply(x) == pytest.approx(v, rel=1e-9, abs=1e-10)

    def test_near_singular_shift_fails(self):
        op, _ = seeded_problem(6, 6, "logspace", 0.5, 3.0, 2)
        w = np.linalg.eigvalsh(op.dense.T @ op.dense)
        with pytest.raises(SolveFailure):
            solve_shifted_gram(op, float(w[2]), np.ones(6))

    def test_matrix_free_path(self):
        op, b = seeded_problem(20, 20, "logspace", 0.5, 4.0, 3)
        A = op.dense
        mf = LinearOperator.from_callables(20, 20, lambda v: A @ v, lambda u: A.T @ u)
        x = solve_shifted_gram(mf, -2.5, b)
        expected = np.linalg.solve(A.T @ A + 2.5 * np.eye(20), b)
        assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_matrix_free_positive_shift(self):
        # xi > 0 goes to MINRES: above sigma_max^2, in a spectral gap, and on
        # a squared singular value, where the solve must fail
        op, b = seeded_problem(200, 200, "logspace", 0.1, 10.0, 5)
        A = op.dense
        G = A.T @ A
        mf = LinearOperator.from_callables(200, 200, lambda v: A @ v, lambda u: A.T @ u)
        for xi in (150.0, 25.0):
            expected = np.linalg.solve(G - xi * np.eye(200), b)
            x = solve_shifted_gram(mf, xi, b)
            assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)
        sigma = op.factors[1]
        with pytest.raises(SolveFailure):
            solve_shifted_gram(mf, float(sigma[100] ** 2), b)

    def test_matrix_free_rank_deficient_fails_cheaply(self):
        # matrix-free twin of test_near_singular_shift_fails: a pass that does
        # not lower the true residual ends the refinement
        n = 200
        values = np.concatenate([np.logspace(1.0, -1.0, n - 5), np.zeros(5)])
        op, b = explicit_profile_problem(values, n, n, 3)
        A = op.dense
        calls = []

        def matvec(v):
            calls.append(1)
            return A @ v

        mf = LinearOperator.from_callables(n, n, matvec, lambda u: A.T @ u)
        with pytest.raises(SolveFailure) as failure:
            solve_shifted_gram(mf, 0.0, b)
        assert len(calls) <= 21 * n
        # the message reports the best iterate (here x = 0), not the diverged one
        reported = float(re.search(r"residual (\S+) exceeds", str(failure.value)).group(1))
        assert reported <= np.linalg.norm(b) * (1 + 1e-3)

    @pytest.mark.parametrize("xi, rtol", [
        pytest.param(-1.0, GRAM_SOLVE_RTOL, id="-1.0"),
        pytest.param(150.0, GRAM_SOLVE_RTOL, id="150.0"),
        pytest.param(-1.0, 1e-6, id="-1.0-rtol1e-6"),
        pytest.param(150.0, 1e-6, id="150.0-rtol1e-6")])
    def test_matrix_free_does_not_over_solve(self, xi, rtol):
        # the returned residual meets the check without digits to spare
        op, b = seeded_problem(200, 200, "logspace", 0.1, 10.0, 5)
        A = op.dense
        mf = LinearOperator.from_callables(200, 200, lambda v: A @ v, lambda u: A.T @ u)
        x = solve_shifted_gram(mf, xi, b, rtol=rtol)
        ratio = np.linalg.norm(A.T @ (A @ x) - xi * x - b) / (rtol * np.linalg.norm(b))
        assert 1e-2 <= ratio <= 1.0

    @pytest.mark.parametrize("rtol", [0.0, -1.0, 1.0, 2.0, math.nan, math.inf])
    def test_rtol_outside_unit_interval_rejected(self, rtol):
        # with rtol >= 1 even x = 0 would pass the residual check
        op, b = seeded_problem(200, 200, "logspace", 0.1, 10.0, 5)
        A = op.dense
        mf = LinearOperator.from_callables(200, 200, lambda v: A @ v, lambda u: A.T @ u)
        for operator in (op, mf):
            with pytest.raises(ArgumentError, match="rtol"):
                solve_shifted_gram(operator, -1.0, b, rtol=rtol)

    @pytest.mark.parametrize("xi", [-1.0, 0.0])
    def test_dense_solve_bitwise_equals_shifted_lu(self, xi):
        # the in-place shifted factor is the LU of G - xi I, bit for bit
        op, b = seeded_problem(50, 50, "logspace", 0.5, 4.0, 11)
        G = op.dense.T @ op.dense
        expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(G - xi * np.eye(50)), b)
        assert np.array_equal(solve_shifted_gram(op, xi, b), expected)

    def test_one_solver_per_shift_factored_at_its_first_solve(self, monkeypatch):
        calls = record_factors(monkeypatch)
        op, b = seeded_problem(30, 30, "logspace", 0.5, 4.0, 11)
        solver = ShiftedGram.of(op, -1)
        assert ShiftedGram.of(op, -1.0) is solver and op.shifted_grams == {-1.0: solver}
        assert len(calls) == 0
        x = solve_shifted_gram(op, -1.0, b)
        assert len(calls) == 1
        assert np.array_equal(solver.factor_solve(b), x) and len(calls) == 1

    @pytest.mark.parametrize("engine, matrix_free", [
        pytest.param(None, False, id="None"),
        pytest.param(rgk_run, False, id="rgk_run"),
        pytest.param(rational_gmf_approximate, False, id="rational_gmf_approximate"),
        pytest.param(rgk_run, True, id="rgk_run-matrix-free"),
        pytest.param(rational_gmf_approximate, True, id="rational_gmf_approximate-matrix-free")])
    def test_operator_freed_without_the_cycle_collector(self, engine, matrix_free):
        # the operator holds its solvers and they hold it weakly, and it refers
        # to a run's Krylov basis weakly, so its arrays and factors go with its
        # last reference, not at some later full gc
        op, b = seeded_problem(30, 30, "logspace", 0.5, 4.0, 11)
        if matrix_free:
            A = op.dense
            op = LinearOperator.from_callables(30, 30, lambda v: A @ v, lambda u: A.T @ u)
        poles = PoleSequence((-1.0, -2.0) * 3)
        if engine is None:
            solve_shifted_gram(op, -1.0, b)
        else:
            engine(builtin("sqrt"), op, b, poles, 6)
        assert len(op.shifted_grams) == (2 if engine else 1)
        freed = weakref.ref(op)
        gc.disable()
        try:
            del op
            assert freed() is None
        finally:
            gc.enable()

    def test_krylov_basis_stops_at_n_columns(self):
        # a non-finite product gives a NaN beta, which no breakdown test
        # catches; the basis still stops at n columns and the solve returns.
        # The product sleeps so that CGS2 never outweighs it.
        n = 6

        def matvec(v):
            time.sleep(1e-3)
            return np.full(n, np.nan)

        basis = KrylovBasis(LinearOperator.from_callables(n, n, matvec, lambda u: u),
                            np.eye(n)[0])
        basis.solve(-1.0, np.ones(n), 0.0)
        assert basis.columns.size == n

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_rejected(self, xi):
        # before any factor or iteration: no solver is kept for a NaN or inf
        op, b = seeded_problem(20, 20, "logspace", 0.5, 4.0, 3)
        A = op.dense
        calls = []

        def matvec(v):
            calls.append(1)
            return A @ v

        mf = LinearOperator.from_callables(20, 20, matvec, lambda u: A.T @ u)
        for operator in (op, mf):
            with pytest.raises(ArgumentError, match="xi"):
                solve_shifted_gram(operator, xi, b)
            with pytest.raises(ArgumentError, match="xi"):
                ShiftedGram(operator, xi)
            assert operator.shifted_grams == {}
        assert not calls

    # the dense check multiplies by the cached A^T A that was factored, so it
    # measures the LU's backward error; these tests judge it with A itself
    @pytest.mark.parametrize("m, n", SHAPES)
    def test_dense_check_fails_on_squared_singular_value(self, m, n):
        op, b = seeded_problem(m, n, "logspace", 0.5, 4.0, 13)
        sigma = op.factors[1]
        for j in (0, sigma.size // 2, sigma.size - 1):
            with pytest.raises(SolveFailure):
                solve_shifted_gram(op, float(sigma[j] ** 2), b)

    def test_dense_check_fails_on_rank_deficient_zero_shift(self):
        values = np.concatenate([np.logspace(0.5, -0.5, 35), np.zeros(5)])
        op, b = explicit_profile_problem(values, 40, 40, 13)
        with pytest.raises(SolveFailure):
            solve_shifted_gram(op, 0.0, b)

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_dense_check_passes_off_the_spectrum(self, m, n):
        # a negative shift, and the middle of a gap between squared singular values
        op, b = seeded_problem(m, n, "logspace", 0.5, 4.0, 13)
        A, sigma = op.dense, op.factors[1]
        j = sigma.size // 2
        for xi in (-1.0, float(sigma[j] ** 2 + sigma[j + 1] ** 2) / 2):
            x = solve_shifted_gram(op, xi, b)
            residual = np.linalg.norm(A.T @ (A @ x) - xi * x - b)
            assert residual <= GRAM_SOLVE_RTOL * np.linalg.norm(b)


class TestSharedEigendecomposition:
    """``op.share_gram_eigh()`` takes one eigendecomposition of A^T A, which
    every shift on the operator then solves with; a shifted solve never takes
    it itself."""

    def test_distinct_shifts_solved_directly_keep_one_lu_each(self, monkeypatch):
        # the decision belongs to the engines, which know the pole sequence:
        # the exported solve pays one LU per shift and no eigh
        factors, eighs = record_factors(monkeypatch), record_eighs(monkeypatch)
        op, b = seeded_problem(50, 50, "logspace", 0.5, 4.0, 11)
        for xi in (-1.0, -2.0, -1.0, -2.0):
            solve_shifted_gram(op, xi, b)
        assert (len(factors), len(eighs)) == (2, 0) and op.gram_eigh is None
        assert all(solver._lu for solver in op.shifted_grams.values())

    def test_shared_eigh_releases_the_lus_and_solves_every_shift(self, monkeypatch):
        factors, eighs = record_factors(monkeypatch), record_eighs(monkeypatch)
        op, b = seeded_problem(50, 50, "logspace", 0.5, 4.0, 11)
        G = op.dense.T @ op.dense
        x1 = solve_shifted_gram(op, -1.0, b)
        assert op.share_gram_eigh() is op.share_gram_eigh()
        assert (len(factors), len(eighs)) == (1, 1)
        assert op.shifted_grams[-1.0]._lu is None
        for xi, x in ((-1.0, x1), (-2.0, solve_shifted_gram(op, -2.0, b)),
                      (-1.0, solve_shifted_gram(op, -1.0, b))):
            expected = scipy.linalg.solve(G - xi * np.eye(50), b)
            assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
        assert (len(factors), len(eighs)) == (1, 1)
        assert all(solver._lu is None for solver in op.shifted_grams.values())

    def test_exact_eigenvalue_raises_without_a_warning(self):
        # A^T A = diag(9, 4, 1, 0.25), whose eigendecomposition is exact: 4 - 4 is
        # an exact zero, which must not divide into an inf or NaN
        op = LinearOperator.from_dense(np.diag([3.0, 2.0, 1.0, 0.5]))
        op.share_gram_eigh()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_shifted_gram(op, -1.0, np.ones(4))
            for solve in (lambda: solve_shifted_gram(op, 4.0, np.ones(4)),
                          lambda: ShiftedGram.of(op, 4.0).factor_solve(np.ones(4))):
                with pytest.raises(SolveFailure, match="residual inf"):
                    solve()

    @pytest.mark.parametrize("engine", [rgk_run, rational_gmf_approximate],
                             ids=["short", "full"])
    @pytest.mark.parametrize("j", [0, 20, 39])
    def test_cycled_pole_at_a_squared_singular_value_fails(self, engine, j):
        # the second pole of the cycle solves with the shared factor, and its
        # check refuses it, with no RuntimeWarning on the way
        op, b = seeded_problem(40, 40, "logspace", 0.5, 4.0, 31)
        poles = PoleSequence((-1.0, float(op.factors[1][j] ** 2)) * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolveFailure):
                engine(builtin("sqrt"), op, b, poles, 8)
        assert op.gram_eigh is not None

    def test_lu_factored_while_sharing_is_dropped(self, monkeypatch):
        # another thread takes the shared eigendecomposition while this LU is
        # being factored: the LU is not kept, and the solve uses the eigh
        op, b = seeded_problem(50, 50, "logspace", 0.5, 4.0, 11)
        G = op.dense.T @ op.dense
        dgetrf = scipy.linalg.lapack.dgetrf

        def sharing_meanwhile(*args, **kwargs):
            op.share_gram_eigh()
            return dgetrf(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", sharing_meanwhile)
        x = solve_shifted_gram(op, -1.0, b)
        assert op.gram_eigh is not None and op.shifted_grams[-1.0]._lu is None
        expected = scipy.linalg.solve(G + np.eye(50), b)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_concurrent_sharing_builds_one_eigh_and_keeps_no_lu(self, monkeypatch):
        # the build runs under the operator's lock and looks again inside it,
        # so the racing threads make one eigendecomposition; an LU that was
        # being factored while it was built is dropped, not kept
        factors, eighs = record_factors(monkeypatch), record_eighs(monkeypatch)
        op, b = seeded_problem(100, 100, "logspace", 0.5, 4.0, 11)
        G = op.dense.T @ op.dense
        shifts = [-1.0 - j for j in range(16)]

        def solve(j):
            if j % 2:
                op.share_gram_eigh()
            return solve_shifted_gram(op, shifts[j], b)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as executor:
                futures = [executor.submit(solve, j) for j in range(len(shifts))]
                xs = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(eighs) == 1 and len(factors) <= len(shifts)
        assert all(solver._lu is None for solver in op.shifted_grams.values())
        for xi, x in zip(shifts, xs):
            expected = scipy.linalg.solve(G - xi * np.eye(100), b)
            assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


class TestScipyBlasPool:
    """The Gram LU runs with scipy's own OpenBLAS pool at one thread."""

    @pytest.fixture
    def pool(self):
        # a count of 2 before the factor, so a restore to it is seen
        pool = operators._scipy_blas_pool()
        if pool is None:
            pytest.skip("scipy has no OpenBLAS pool of its own here")
        get, set_ = pool
        previous = get()
        set_(2)
        yield get
        set_(previous)

    def record_dgetrf(self, monkeypatch, get, fail=False):
        """Record scipy's thread count inside each dgetrf call; the pause
        lets other threads run inside the capped block."""
        seen, dgetrf = [], scipy.linalg.lapack.dgetrf

        def wrapped(*args, **kwargs):
            seen.append(get())
            time.sleep(1e-3)
            if fail:
                raise RuntimeError("dgetrf failed")
            return dgetrf(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", wrapped)
        return seen

    def test_factor_runs_at_one_thread_and_restores(self, pool, monkeypatch):
        seen = self.record_dgetrf(monkeypatch, pool)
        op, b = seeded_problem(50, 50, "logspace", 0.5, 4.0, 11)
        solve_shifted_gram(op, -1.0, b)
        assert seen == [1] and pool() == 2

    def test_zero_pivot_restores(self, pool, monkeypatch):
        seen = self.record_dgetrf(monkeypatch, pool)
        op = LinearOperator.from_dense(np.zeros((3, 3)))
        solver = ShiftedGram(op, 0.0)
        for _ in range(2):
            with pytest.raises(SolveFailure, match="residual inf"):
                solver.factor_solve(np.ones(3))
        assert seen == [1] and pool() == 2

    def test_raising_factor_restores(self, pool, monkeypatch):
        self.record_dgetrf(monkeypatch, pool, fail=True)
        op, b = seeded_problem(50, 50, "logspace", 0.5, 4.0, 11)
        with pytest.raises(RuntimeError, match="dgetrf failed"):
            solve_shifted_gram(op, -1.0, b)
        assert pool() == 2

    def test_concurrent_factors_restore(self, pool, monkeypatch):
        # more threads than cores, switching often: a save and restore that
        # interleaved would leave the pool at one thread. One shift on each
        # of 16 operators, so that each takes an LU of its own
        seen = self.record_dgetrf(monkeypatch, pool)
        op, b = seeded_problem(100, 100, "logspace", 0.5, 4.0, 11)
        ops = [LinearOperator.from_dense(op.dense) for _ in range(16)]
        shifts = [-1.0 - j for j in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as executor:
                futures = [executor.submit(solve_shifted_gram, each, xi, b)
                           for each, xi in zip(ops, shifts)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert seen == [1] * len(shifts) and pool() == 2

    def test_factor_without_lookup(self, monkeypatch):
        # no OpenBLAS thread functions found (MKL, Accelerate, Windows)
        monkeypatch.setattr(operators, "_blas_threads_api", lambda module: None)
        assert operators._scipy_blas_pool() is None
        assert operators.blas_thread_counts() == {"numpy": None, "scipy": None}
        op, b = seeded_problem(50, 50, "logspace", 0.5, 4.0, 11)
        G = op.dense.T @ op.dense
        expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(G + np.eye(50)), b)
        assert np.array_equal(solve_shifted_gram(op, -1.0, b), expected)

    def test_same_library_leaves_count(self, monkeypatch):
        # numpy and scipy resolving one symbol to one address share one pool
        calls = []
        get = ctypes.CFUNCTYPE(ctypes.c_int)(lambda: 2)
        set_ = ctypes.CFUNCTYPE(None, ctypes.c_int)(calls.append)
        monkeypatch.setattr(operators, "_blas_threads_api", lambda module: (get, set_))
        assert operators._scipy_blas_pool() is None
        op, b = seeded_problem(50, 50, "logspace", 0.5, 4.0, 11)
        solve_shifted_gram(op, -1.0, b)
        assert calls == []

    def test_separate_libraries_are_capped(self, monkeypatch):
        # the same lookup with two addresses: scipy's count is set and restored
        calls = []
        count = ctypes.CFUNCTYPE(ctypes.c_int)(lambda: 2)
        apis = {module: (count, ctypes.CFUNCTYPE(None, ctypes.c_int)(
                    lambda n, lib=lib: calls.append((lib, n))))
                for lib, module in operators._BLAS_EXTENSIONS.items()}
        monkeypatch.setattr(operators, "_blas_threads_api", apis.get)
        op, b = seeded_problem(50, 50, "logspace", 0.5, 4.0, 11)
        solve_shifted_gram(op, -1.0, b)
        solve_shifted_gram(op, -1.0, b)
        assert calls == [("scipy", 1), ("scipy", 2)]

    def test_thread_counts(self):
        counts = operators.blas_thread_counts()
        assert sorted(counts) == ["numpy", "scipy"]
        assert all(c is None or (isinstance(c, int) and c >= 1) for c in counts.values())


def haar(n, seed):
    return operators._haar_from_rng(n, np.random.default_rng(seed))


class TestHaar:
    def test_one_by_one(self):
        q = haar(1, 0)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-15
        assert np.array_equal(q, haar(1, 0))

    def test_orthogonality(self):
        Q = haar(50, 3)
        assert np.linalg.norm(Q.T @ Q - np.eye(50)) <= 1e-12

    def test_deterministic_per_seed(self):
        assert np.array_equal(haar(50, 3), haar(50, 3))
        assert not np.array_equal(haar(50, 3), haar(50, 4))


class TestSynthesize:
    def test_flat_profile_gives_orthogonal(self):
        prof = SingularProfile(np.ones(3))
        op = synthesize_test_matrix(3, 3, prof, 0)
        assert np.linalg.norm(op.dense.T @ op.dense - np.eye(3)) <= 1e-12

    def test_svd_roundtrip(self):
        prof = SingularProfile(np.array([5.0, 4.0, 3.0, 2.0, 1.0]))
        op = synthesize_test_matrix(5, 5, prof, 7)
        s = np.linalg.svd(op.dense, compute_uv=False)
        assert s == pytest.approx(prof.values, rel=1e-10)

    def test_rectangular_roundtrip(self):
        for seed in range(4):
            prof = singular_profile("logspace", 6, 0.3, 9.0)
            op = synthesize_test_matrix(11, 6, prof, seed)
            s = np.linalg.svd(op.dense, compute_uv=False)
            assert s == pytest.approx(prof.values, rel=1e-10)

    def test_desk_scale_chebyshev(self):
        # scaled-down analog of the large random matrices with Chebyshev
        # points of the second kind on [0.1, 10]
        prof = singular_profile("chebyshev2", 30, 0.1, 10.0)
        op = synthesize_test_matrix(30, 30, prof, 1)
        s = np.linalg.svd(op.dense, compute_uv=False)
        assert s == pytest.approx(prof.values, rel=1e-10)

    @pytest.mark.parametrize("m,n", [(7, 7), (11, 6), (6, 11)])
    def test_factors_are_the_svd(self, m, n):
        prof = singular_profile("logspace", min(m, n), 0.3, 9.0)
        op = synthesize_test_matrix(m, n, prof, 5)
        U, sigma, V = op.factors
        r = min(m, n)
        assert U.shape == (m, r) and V.shape == (n, r)
        assert np.array_equal(sigma, prof.values)
        assert np.array_equal(op.dense, (U * sigma) @ V.T)
        assert np.linalg.norm(U.T @ U - np.eye(r)) <= 1e-13
        assert np.linalg.norm(V.T @ V - np.eye(r)) <= 1e-13

    def test_profile_length_mismatch(self):
        with pytest.raises(ArgumentError):
            synthesize_test_matrix(4, 4, SingularProfile(np.ones(3)), 0)


class TestSingularProfile:
    def test_chebyshev_endpoints(self):
        prof = singular_profile("chebyshev2", 3, 0.0, 2.0)
        assert prof.values == pytest.approx([2.0, 1.0, 0.0], abs=1e-15)

    def test_logspace_geometric(self):
        prof = singular_profile("logspace", 3, 1.0, 100.0)
        assert prof.values == pytest.approx([100.0, 10.0, 1.0], rel=1e-14)

    def test_chebyshev_cos_map(self):
        # direct evaluation of the affine cosine map for count 5 on [0.1, 10]
        prof = singular_profile("chebyshev2", 5, 0.1, 10.0)
        nodes = np.cos(np.arange(5) * np.pi / 4)
        expected = 0.1 + 9.9 * (nodes + 1.0) / 2.0
        assert prof.values == pytest.approx(expected, rel=1e-15)
        assert prof.values[0] == pytest.approx(10.0)
        assert prof.values[2] == pytest.approx(5.05)
        assert prof.values[4] == pytest.approx(0.1)

    def test_invalid_interval(self):
        with pytest.raises(ArgumentError):
            singular_profile("chebyshev2", 3, 2.0, 1.0)
        with pytest.raises(ArgumentError):
            singular_profile("logspace", 3, 0.0, 1.0)
        with pytest.raises(ArgumentError):
            singular_profile("nope", 3, 1.0, 2.0)

    def test_descending_and_in_range(self):
        for seed, kind in ((0, "chebyshev2"), (1, "logspace")):
            prof = singular_profile(kind, 17, 0.2, 7.0)
            assert np.all(np.diff(prof.values) <= 0)
            assert prof.values[0] <= 7.0 and prof.values[-1] >= 0.2

    def test_ascending_rejected(self):
        with pytest.raises(ArgumentError):
            SingularProfile(np.array([1.0, 2.0]))


class TestMatrixFile:
    def test_roundtrip(self, tmp_path):
        A = np.random.default_rng(5).standard_normal((4, 7))
        path = tmp_path / "a.txt"
        save_dense_matrix(path, A)
        op = load_dense_matrix(path)
        assert np.array_equal(op.dense, A)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0\n", encoding="ascii")
        with pytest.raises(ArgumentError):
            load_dense_matrix(path)
