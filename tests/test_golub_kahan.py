import numpy as np
import pytest

from gmfkrylov import (LinearOperator, builtin, gk_approximate, gk_init, gk_step,
                       gmf_apply_reference, gmf_dense, odd_monomial, polynomial_poles,
                       project, rational_arnoldi)

from conftest import seeded_problem


def run_steps(op, b, k):
    state = gk_init(b)
    for _ in range(k):
        gk_step(state, op)
        if state.breakdown:
            break
    return state


def gk_basis(op, b, k):
    """The reorthogonalized GK bases: Q from the rational basis with every pole
    at infinity, P and B from the QR of A Q."""
    fac = rational_arnoldi(op, b, polynomial_poles(k), k)
    return fac, project(op, fac.Q)


class TestStep:
    def test_hand_computed_first_step(self):
        # A = diag(3, 1), q1 = (1,1)/sqrt(2): alpha1 = sqrt(5),
        # p1 = (3,1)/sqrt(10), beta1 = sqrt(3.2), q2 = (1,-1)/sqrt(2)
        op = LinearOperator.from_dense(np.diag([3.0, 1.0]))
        state = run_steps(op, np.ones(2), 1)
        assert state.alpha[0] == pytest.approx(np.sqrt(5.0), rel=1e-15)
        assert state.p == pytest.approx(np.array([3.0, 1.0]) / np.sqrt(10.0))
        assert state.beta[0] == pytest.approx(np.sqrt(3.2), rel=1e-15)
        assert state.q == pytest.approx(np.array([1.0, -1.0]) / np.sqrt(2.0))

    def test_invariant_subspace_breakdown(self):
        op = LinearOperator.from_dense(np.eye(3))
        state = run_steps(op, np.array([1.0, 0.0, 0.0]), 3)
        assert state.alpha == [pytest.approx(1.0)]
        assert state.p == pytest.approx([1.0, 0.0, 0.0])
        assert state.breakdown and state.k == 1

    def test_bases_orthonormal(self):
        op, b = seeded_problem(5, 5, "chebyshev2", 1.0, 5.0, 7)
        state = run_steps(op, b, 3)
        P = np.column_stack(state.P)
        Q = np.column_stack(state.Q[:3])
        assert np.linalg.norm(P.T @ P - np.eye(3)) <= 1e-12
        assert np.linalg.norm(Q.T @ Q - np.eye(3)) <= 1e-12

    def test_factorization_relation(self):
        # A Q_k = P_k B_k
        op, b = seeded_problem(9, 6, "logspace", 0.5, 4.0, 1)
        state = run_steps(op, b, 4)
        P = np.column_stack(state.P)
        Q = np.column_stack(state.Q[:4])
        B = state.bidiagonal()
        assert np.linalg.norm(op.dense @ Q - P @ B) <= 1e-10 * op.norm_estimate()


class TestApproximate:
    def test_identity_exact_at_k1(self):
        op, b = seeded_problem(8, 6, "logspace", 0.5, 4.0, 2)
        ys, _ = gk_approximate(builtin("identity"), op, b, 1)
        assert ys[0] == pytest.approx(op.dense @ b, rel=1e-13)

    def test_odd_quintic_exact_at_k3(self):
        op, b = seeded_problem(8, 6, "logspace", 0.5, 3.0, 4)
        ref = gmf_apply_reference(builtin("z^5"), op.dense, b)
        ys, tr = gk_approximate(builtin("z^5"), op, b, 3, reorth=True, reference=ref)
        assert tr.errors[-1] <= 1e-11

    def test_sqrt_converges_to_oracle(self):
        op, b = seeded_problem(30, 30, "chebyshev2", 0.1, 10.0, 1)
        f = builtin("sqrt")
        ref = gmf_apply_reference(f, op.dense, b)
        ys, tr = gk_approximate(f, op, b, 30, reorth=True, reference=ref)
        assert tr.errors[-1] <= 1e-9
        # overall decrease by orders of magnitude
        assert tr.errors[-1] <= 1e-6 * tr.errors[0]
        assert min(tr.errors) == pytest.approx(tr.errors[-1], rel=1e6)

    def test_polynomial_exactness_family(self):
        # odd polynomials of degree <= 2k-1 are reproduced exactly
        for seed in range(3):
            op, b = seeded_problem(10, 7, "logspace", 0.5, 2.5, seed)
            for ell, k in ((1, 1), (2, 2), (3, 3), (2, 4)):
                f = odd_monomial(ell)
                ref = gmf_apply_reference(f, op.dense, b)
                _, tr = gk_approximate(f, op, b, k, reorth=True, reference=ref)
                assert tr.errors[-1] <= 1e-11, (seed, ell, k)

    def test_interlacing(self):
        op, b = seeded_problem(25, 25, "logspace", 0.4, 6.0, 3)
        _, proj = gk_basis(op, b, 10)
        sv = np.linalg.svd(proj.B, compute_uv=False)
        assert sv.size == 10
        assert sv.max() <= 6.0 + 1e-10
        assert sv.min() >= 0.4 - 1e-10

    def test_q_spans_gram_krylov_space(self):
        op, b = seeded_problem(12, 9, "logspace", 0.5, 3.0, 5)
        k = 5
        fac, _ = gk_basis(op, b, k)
        assert fac.k == k
        # explicit Krylov basis of (A^T A, b)
        V = np.zeros((9, k))
        v = b.copy()
        for j in range(k):
            V[:, j] = v
            v = op.gram_apply(v)
        Vq, _ = np.linalg.qr(V)
        angles = np.linalg.svd(fac.Q.T @ Vq, compute_uv=False)
        assert np.all(angles >= 1.0 - 1e-8)

    def test_reorth_keeps_bases_clean(self):
        # Q stays orthonormal, so P^T A Q stays bidiagonal to roundoff
        op, b = seeded_problem(60, 60, "logspace", 0.01, 10.0, 8)
        fac, proj = gk_basis(op, b, 40)
        assert fac.k == 40
        assert np.linalg.norm(fac.Q.T @ fac.Q - np.eye(40)) <= 1e-11
        assert np.linalg.norm(proj.P.T @ proj.P - np.eye(40)) <= 1e-11
        assert np.abs(np.triu(proj.B, 2)).max() <= 1e-12 * op.norm_estimate()

    @pytest.mark.parametrize("shape", [(30, 20), (20, 20), (20, 30)], ids=str)
    @pytest.mark.parametrize("name", ["sqrt", "sinh"])
    @pytest.mark.parametrize("reorth", [True, False])
    def test_rational_engines_reproduce_the_textbook_step(self, shape, name, reorth):
        # every pole at infinity: y_k = ||b|| P_k f◇(B_k) e_1 from gk_step's
        # P, alpha and beta, for k = 1..8
        f, k_max = builtin(name), 8
        op, b = seeded_problem(*shape, "logspace", 0.5, 3.0, 6)
        state = run_steps(op, b, k_max)
        assert state.k == k_max
        ys, _ = gk_approximate(f, op, b, k_max, reorth=reorth)
        assert len(ys) == k_max
        for k, y in enumerate(ys, 1):
            y_ref = np.linalg.norm(b) * (state.P[:k].T @ gmf_dense(f, state.bidiagonal(k),
                                                                   rtol=0.0)[:, 0])
            assert np.linalg.norm(y - y_ref) <= 1e-10 * np.linalg.norm(y_ref), k
