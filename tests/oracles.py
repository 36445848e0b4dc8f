"""Test oracles: dense checks the engines are validated against.

None of this is library API. The bases come from the full engine's
``GramLanczos`` loop, the projection from a dense QR, and the pencil of a
rational Krylov decomposition is recovered from the basis alone (Berljafa &
Güttel 2015), so no test reads coefficients the recurrence keeps for itself.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from gmfkrylov import GramLanczos, companion_g, gmf_dense, relative_error

IDENTITY_RTOL = 1e-10   # the largest relative defect check_identities passes
ADJOINT_PROBES = 5


Basis = namedtuple("Basis", "Q breakdown")            # Q: n x k, orthonormal


def rational_arnoldi(op, b, poles, k):
    """The full engine's basis of the rational space of (A^T A, b): at most
    k columns from poles xi_1..xi_{k-1}, fewer once the space is invariant."""
    eng = GramLanczos(op, b, poles, "full")
    while eng.count < k and eng.advance() is not None:
        pass
    return Basis(eng.columns.filled.T, eng.breakdown)


Projection = namedtuple("Projection", "P B")         # B = P^T A Q


def project(op, Q):
    """QR of A Q: P (= the Q-factor) and B (= R, nonnegative diagonal)."""
    W, R = np.linalg.qr(op.dense @ np.asarray(Q, dtype=float).reshape(op.cols, -1))
    signs = np.where(np.diag(R) < 0, -1.0, 1.0)
    return Projection(W * signs, R * signs[:, None])


def pencil(op, Q, poles):
    """(H, residual) of M Q K = Q H with M = A^T A, K = I + D H and
    D = diag(0, 1/xi_1, ...), H by least squares from Q alone (no zero pole);
    the residual is ||M Q K - Q H|| / ||M||_2."""
    M = op.dense.T @ op.dense
    MQ = M @ Q
    D = np.array([0.0] + [0.0 if math.isinf(xi) else 1.0 / xi for xi in poles[:Q.shape[1] - 1]])
    H = np.linalg.lstsq(Q - MQ * D, MQ[:, :-1], rcond=None)[0]
    K = np.eye(*H.shape) + D[:, None] * H
    return H, np.linalg.norm(MQ @ K - Q @ H) / np.linalg.norm(M, 2)


def adjointness_defect(op):
    """max |u^T(Av) - (A^T u)^T v| / (||u|| ||v|| ||A||_est) over ADJOINT_PROBES
    seeded random probes."""
    rng = np.random.default_rng(0)
    scale = max(op.norm_estimate(), np.finfo(float).tiny)
    worst = 0.0
    for _ in range(ADJOINT_PROBES):
        u = rng.standard_normal(op.rows)
        v = rng.standard_normal(op.cols)
        worst = max(worst, abs(u @ op.apply(v) - op.applyt(u) @ v) /
                    (np.linalg.norm(u) * np.linalg.norm(v) * scale))
    return worst


def generators(B):
    """Vectors u, v with triu(B, 1) = triu(u v^T, 1) for a QuasiseparableUpper B.

    Built from the column recursion: v_0 = 0 and v_{j+1} is the running
    product of the ratios gamma_t/beta_t, t < j, so u_i = beta_i / v_{i+1}.
    """
    k = B.k
    u, v = np.zeros(k), np.zeros(k)
    if k < 2:
        return u, v
    beta = np.asarray(B.beta[:k - 2])
    assert np.all(beta != 0.0), "vanished beta: no generator form"
    v[1:] = np.cumprod(np.append(1.0, np.asarray(B.gamma[:k - 2]) / beta))
    u[:k - 1] = np.asarray(B.beta[:k - 1]) / v[1:]
    return u, v


@dataclass(frozen=True)
class IdentityReport:
    """Relative defects of the algebraic identities on a given matrix."""

    defects: dict

    @property
    def passed(self):
        return all(v <= IDENTITY_RTOL for v in self.defects.values())

    def violations(self):
        return {k: v for k, v in self.defects.items() if v > IDENTITY_RTOL}


def check_identities(f, A):
    """Verify the identities relating f◇(A) to ordinary matrix functions.

    Checks, for odd polynomials p(z) = q(z^2) z with seeded random coefficients:
        p◇(A) = q(A A^T) A = A q(A^T A),
    and for f itself:
        f◇(A) = A g(A^T A)          (when g extends by 0; g(z) = f(sqrt z)/sqrt z)
        f◇(A) = (A^+)^T f◇(A^T) A
        A^T f◇(A) = f◇(A^T) A.
    """
    A = np.asarray(A, dtype=float)
    rng = np.random.default_rng(0)
    defects = {}

    def matrix_poly(coeffs, M):
        out = coeffs[-1] * np.eye(M.shape[0])
        for cj in coeffs[-2::-1]:
            out = out @ M + cj * np.eye(M.shape[0])
        return out

    for degree in (1, 3, 5):
        coeffs = rng.standard_normal((degree + 1) // 2)
        lhs = gmf_dense(lambda z: z * np.polynomial.polynomial.polyval(z * z, coeffs), A)
        via_left = matrix_poly(coeffs, A @ A.T) @ A
        via_right = A @ matrix_poly(coeffs, A.T @ A)
        defects[f"odd_poly_deg{degree}_left"] = relative_error(via_left, lhs)
        defects[f"odd_poly_deg{degree}_right"] = relative_error(via_right, lhs)

    fA = gmf_dense(f, A)
    if f.small_at_zero:
        w, Q = np.linalg.eigh(A.T @ A)
        g_gram = (Q * companion_g(f)(np.clip(w, 0.0, None))) @ Q.T
        defects["f_equals_A_g_gram"] = relative_error(A @ g_gram, fA)

    pinvT = np.linalg.pinv(A).T
    defects["f_via_transpose"] = relative_error(pinvT @ gmf_dense(f, A.T) @ A, fA)
    defects["swap_transpose"] = relative_error(gmf_dense(f, A.T) @ A, A.T @ fA)

    return IdentityReport(defects)
