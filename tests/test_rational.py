import math

import numpy as np
import pytest

from gmfkrylov import (ArgumentError, GramLanczos, LinearOperator, PoleSequence,
                       ScalarFunction, builtin, extended_poles, gk_init, gk_step,
                       gmf_apply_reference, polynomial_poles, project,
                       rational_arnoldi, rational_gmf_approximate, rgk_run,
                       si_optimal_pole, solve_shifted_gram)
from gmfkrylov import rational

from conftest import seeded_problem


class TestRationalArnoldi:
    def test_infinite_poles_match_polynomial_lanczos(self):
        op, b = seeded_problem(14, 10, "logspace", 0.5, 3.0, 0)
        k = 5
        fac = rational_arnoldi(op, b, polynomial_poles(k), k)
        state = gk_init(b)
        for _ in range(k):
            gk_step(state, op, reorth=True)
        Q_gk = np.column_stack(state.Q[:k])
        angles = np.linalg.svd(fac.Q.T @ Q_gk, compute_uv=False)
        assert np.all(angles >= 1.0 - 1e-8)

    def test_extended_poles_capture_gram_inverse(self):
        # poles (inf, 0): after the zero-pole step the span contains (A^T A)^{-1} b
        op, b = seeded_problem(10, 10, "logspace", 0.5, 3.0, 1)
        fac = rational_arnoldi(op, b, extended_poles(2), 3)
        target = np.linalg.solve(op.dense.T @ op.dense, b)
        proj = fac.Q @ (fac.Q.T @ target)
        assert np.linalg.norm(proj - target) <= 1e-8 * np.linalg.norm(target)

    def test_pencil_residual(self):
        op, b = seeded_problem(20, 20, "logspace", 1.0, 5.0, 5)
        poles = si_optimal_pole(1.0, 5.0, 10)
        fac = rational_arnoldi(op, b, poles, 10)
        assert fac.pencil_residual(op) <= 1e-9
        assert fac.orthogonality_defect() <= 1e-12

    def test_pencil_symmetric_tridiagonal(self):
        op, b = seeded_problem(20, 20, "logspace", 1.0, 5.0, 5)
        poles = PoleSequence((-1.5, -3.0, -0.7, -5.0, -2.2, -9.1, -0.3, -4.4, -1.1))
        fac = rational_arnoldi(op, b, poles, 10)
        H = fac.H
        top = H[:9, :]
        off = top - np.tril(np.triu(top, -1), 1)
        assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(top)
        assert np.linalg.norm(top - top.T) <= 1e-8 * np.linalg.norm(top)
        assert fac.pencil_residual(op) <= 1e-9

    @pytest.mark.parametrize("poles", [
        extended_poles(10),
        PoleSequence((0.0, -1.5, math.inf, -3.0, 0.0, -0.7, math.inf, -2.0, -1.0)),
        PoleSequence((30.0, -1.5, 40.0, math.inf, -3.0, 50.0, -0.7, -2.0, 60.0)),
    ], ids=["extended", "zero_finite_inf", "positive"])
    def test_pencil_of_zero_and_positive_poles(self, poles):
        op, b = seeded_problem(20, 20, "logspace", 1.0, 5.0, 5)
        fac = rational_arnoldi(op, b, poles, 10)
        assert fac.k == 10
        assert fac.pencil_residual(op) <= 1e-9
        assert fac.orthogonality_defect() <= 1e-12

    def test_nonfinite_start_vector_raises(self):
        op, b = seeded_problem(10, 10, "logspace", 0.5, 3.0, 0)
        b[2] = np.nan
        with pytest.raises(ArgumentError):
            rational_arnoldi(op, b, polynomial_poles(4), 5)

    def test_invariance_truncates(self):
        op = LinearOperator.from_dense(np.diag([2.0, 1.0]))
        fac = rational_arnoldi(op, np.ones(2), polynomial_poles(5), 5)
        assert fac.breakdown and fac.k == 2

    def test_pole_exhaustion_raises(self):
        op, b = seeded_problem(6, 6, "logspace", 0.5, 2.0, 0)
        with pytest.raises(ArgumentError):
            rational_arnoldi(op, b, polynomial_poles(2), 5)


class TestProject:
    def test_wide_matrix_tiny_projection(self):
        # 1x2 matrix with b = (eps, 1): B_1 = eps / sqrt(1 + eps^2)
        op = LinearOperator.from_dense(np.array([[1.0, 0.0]]))
        eps = 1e-6
        b = np.array([eps, 1.0])
        q = (b / np.linalg.norm(b)).reshape(-1, 1)
        pj = project(op, q)
        assert abs(pj.B[0, 0] - eps) <= 1e-18

    def test_orthogonal_matrix_unit_singular_values(self):
        # any orthonormal Q projects an orthogonal A to unit singular values
        from gmfkrylov import haar_orthogonal
        op, _ = seeded_problem(6, 6, "chebyshev2", 1.0, 1.0, 4)
        Q = haar_orthogonal(6, 12)[:, :4]
        pj = project(op, Q)
        sv = np.linalg.svd(pj.B, compute_uv=False)
        assert sv == pytest.approx(np.ones(4), abs=1e-12)

    def test_matches_explicit_projection(self):
        op, b = seeded_problem(5, 5, "chebyshev2", 1.0, 5.0, 7)
        fac = rational_arnoldi(op, b, polynomial_poles(3), 3)
        pj = project(op, fac.Q)
        explicit = pj.P.T @ op.dense @ fac.Q
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
            fac = rational_arnoldi(op, b, poles, 8)
            pj = project(op, fac.Q, poles)
            sv = np.linalg.svd(pj.B, compute_uv=False)
            assert sv.max() <= 6.0 + 1e-10 and sv.min() >= 0.4 - 1e-10, poles.kind

    def test_projected_gram_positive_definite(self):
        op, b = seeded_problem(15, 15, "logspace", 0.5, 4.0, 7)
        fac = rational_arnoldi(op, b, si_optimal_pole(0.5, 4.0, 8), 8)
        J = fac.Q.T @ (op.dense.T @ op.dense) @ fac.Q
        assert np.linalg.eigvalsh(J).min() > 0

    def test_projected_gram_quasiseparable(self):
        # off-diagonal blocks of J - diag(0, xi_1, ..., xi_k) have rank 1
        op, b = seeded_problem(20, 20, "logspace", 0.5, 4.0, 8)
        xis = (-1.0, -2.0, -4.0, -8.0, -0.5, -3.3, -6.1)
        fac = rational_arnoldi(op, b, PoleSequence(xis), 8)
        J = fac.Q.T @ (op.dense.T @ op.dense) @ fac.Q
        S = J - np.diag((0.0,) + xis)
        nJ = np.linalg.norm(J, 2)
        for i in range(1, 8):
            block = S[:i, i:]
            sv = np.linalg.svd(block, compute_uv=False)
            if sv.size > 1:
                assert sv[1] <= 1e-8 * nJ, i

    def test_structure_tags(self):
        op, b = seeded_problem(8, 8, "logspace", 0.5, 2.0, 9)
        for poles, tag in ((polynomial_poles(3), "bidiagonal"),
                           (extended_poles(3), "dense-upper"),
                           (si_optimal_pole(0.5, 2.0, 3), "quasiseparable-upper")):
            fac = rational_arnoldi(op, b, poles, 3)
            assert project(op, fac.Q, poles).structure == tag


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
            assert defect <= 1e-10, poles.kind


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
        # with M q_j = A^T (A q_j); each solve's residual check is one Gram product
        op, b = seeded_problem(40, 40, "logspace", 0.5, 3.0, 11)
        counts = _count_operations(monkeypatch, op)
        ys = engine(builtin("sqrt"), op, b, si_optimal_pole(0.5, 3.0, self.K),
                    self.K)[0]
        assert len(ys) == self.K
        assert counts == {"apply": 2 * self.K, "applyt": 2 * self.K - 1,
                          "solve": self.K}

    @pytest.mark.parametrize("engine", [rgk_run, rational_gmf_approximate],
                             ids=["short", "full"])
    def test_distinct_pole_counts(self, monkeypatch, engine):
        op, b = seeded_problem(40, 40, "logspace", 0.5, 3.0, 11)
        counts = _count_operations(monkeypatch, op)
        poles = PoleSequence(tuple(-np.geomspace(0.3, 9.0, self.K - 1)))
        ys = engine(builtin("sqrt"), op, b, poles, self.K)[0]
        assert len(ys) == self.K
        assert counts == {"apply": 3 * self.K - 2, "applyt": 3 * self.K - 3,
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
