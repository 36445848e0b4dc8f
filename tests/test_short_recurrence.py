import numpy as np
import pytest

from gmfkrylov import (LinearOperator, PoleSequence, QuasiseparableUpper, builtin,
                       extended_poles, gk_init, gk_step, gmf_apply_reference,
                       polynomial_poles, project, rational_arnoldi,
                       rational_gmf_approximate, reconstruct_dense, rgk_run,
                       rgk_step, si_optimal_pole)

from conftest import seeded_problem


class TestStep:
    def test_first_step_is_plain_normalization(self):
        op = LinearOperator.from_dense(np.diag([3.0, 1.0]))
        q1 = np.ones(2) / np.sqrt(2.0)
        p, d, beta, gamma, x, fb = rgk_step(op, q1, None, None, np.zeros(2), 0.0)
        assert d == pytest.approx(np.sqrt(5.0), rel=1e-15)
        assert p == pytest.approx(np.array([3.0, 1.0]) / np.sqrt(10.0))
        assert beta is None and gamma is None and not fb

    def test_infinite_poles_reduce_to_golub_kahan(self):
        op, b = seeded_problem(30, 20, "chebyshev2", 1.0, 6.0, 9)
        _, B, _ = rgk_run(builtin("sqrt"), op, b, polynomial_poles(10), 10,
                          evaluate=False)
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
        _, B, _ = rgk_run(builtin("sqrt"), op, b, poles, 4, evaluate=False)
        fac = rational_arnoldi(op, b, poles, 4)
        Bf = project(op, fac.Q, poles).B
        assert np.abs(B.dense() - Bf).max() <= 1e-9

    def test_reconstruction_matches_at_k5(self):
        op, b = seeded_problem(20, 20, "logspace", 1.0, 5.0, 5)
        poles = si_optimal_pole(1.0, 5.0, 6)
        _, B, _ = rgk_run(builtin("sqrt"), op, b, poles, 5, evaluate=False)
        fac = rational_arnoldi(op, b, poles, 5)
        Bf = project(op, fac.Q, poles).B
        assert np.abs(reconstruct_dense(B) - Bf).max() <= 1e-9

    def test_btb_is_projected_gram(self):
        op, b = seeded_problem(18, 18, "logspace", 0.5, 4.0, 3)
        poles = PoleSequence((-1.0, -2.5, -4.0, -7.0, -1.7, -3.1, -5.9))
        _, B, _ = rgk_run(builtin("sqrt"), op, b, poles, 8, evaluate=False)
        fac = rational_arnoldi(op, b, poles, 8)
        J = fac.Q.T @ (op.dense.T @ op.dense) @ fac.Q
        Bd = B.dense()
        assert np.linalg.norm(Bd.T @ Bd - J) <= 1e-8 * np.linalg.norm(J)

    def test_offdiagonal_entries_nonvanishing(self):
        # below the invariance index every column beyond the first carries
        # at least one significant off-diagonal entry
        op, b = seeded_problem(18, 18, "logspace", 0.5, 4.0, 3)
        _, B, _ = rgk_run(builtin("sqrt"), op, b, si_optimal_pole(0.5, 4.0, 10),
                          10, evaluate=False)
        Bd = B.dense()
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
        _, B, _ = rgk_run(builtin("sqrt"), op, b, polynomial_poles(6), 6,
                          evaluate=False)
        Bd = B.dense()
        assert np.abs(np.triu(Bd, 2)).max() <= 1e-12 * op.norm_estimate()

    def test_generators_reproduce_strict_upper(self):
        op, b = seeded_problem(20, 20, "logspace", 0.5, 4.0, 6)
        poles = PoleSequence(tuple(np.linspace(-1.0, -8.0, 9)))
        _, B, _ = rgk_run(builtin("sqrt"), op, b, poles, 10, evaluate=False)
        u, v = B.generators()
        Bd = B.dense()
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

    def test_extended_poles_match_full_orthogonalization(self):
        # zero poles take the windowed companion path
        op, b = seeded_problem(24, 24, "logspace", 0.5, 6.0, 2)
        f = builtin("sqrt")
        ref = gmf_apply_reference(f, op.dense, b)
        poles = extended_poles(12)
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
        p1, d1, *_ = rgk_step(op, q1, None, None, np.zeros(op.rows), 0.0)
        p2, d2, b1, *_ = rgk_step(op, q2, p1, None, np.zeros(op.rows), 0.0)
        w = op.apply(q3)
        # force the degenerate branch: beta_prev = 0 with stored history
        p3, d3, beta2, gamma1, x3, used = rgk_step(
            op, q3, p2, p1, b1 * p1, 0.0, p_history=[p1, p2])
        assert used
        expected_x = (w @ p1) * p1 + (w @ p2) * p2
        assert x3 == pytest.approx(expected_x, abs=1e-12)
        resid = w - expected_x
        assert d3 == pytest.approx(np.linalg.norm(resid), rel=1e-12)
        # without history the degenerate branch must fail loudly
        from gmfkrylov import ArgumentError
        with pytest.raises(ArgumentError):
            rgk_step(op, q3, p2, p1, b1 * p1, 0.0)
