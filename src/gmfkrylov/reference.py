"""Dense SVD ground truth for f◇(A) and the algebraic identities it satisfies.

This is the oracle the projection methods are validated against; it is meant
for desk-scale matrices only. ``gmf_apply_factors`` takes f◇(A) b from an SVD
already at hand (a synthesized matrix's own factors), ``gmf_apply_reference``
from a dense SVD of A.
"""

from dataclasses import dataclass

import numpy as np

from .functions import companion_g
from .traces import relative_error

RANK_RTOL = 1e-13
IDENTITY_RTOL = 1e-10   # the largest relative defect check_identities passes


@dataclass(frozen=True)
class CompactSvd:
    """U_r, descending positive sigma_r, V_r of the rank-r compact SVD."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def rank(self):
        return self.sigma.size


def _truncated(U, s, Vt, rtol=RANK_RTOL):
    """CompactSvd of U diag(s) Vt with the singular values s <= rtol * s_1 dropped."""
    if s.size and s[0] > 0:
        keep = s > rtol * s[0]
    else:
        keep = np.zeros(s.shape, dtype=bool)
    return CompactSvd(U[:, keep], s[keep], Vt[keep].T)


def compact_svd(A, rtol=RANK_RTOL):
    """Compact SVD with singular values below rtol * sigma_1 truncated."""
    A = np.asarray(A, dtype=float)
    return _truncated(*np.linalg.svd(A, full_matrices=False), rtol=rtol)


def gmf_dense(f, A, rtol=RANK_RTOL):
    """U_r f(Sigma_r) V_r^T applied to the nonzero singular values of A."""
    svd = compact_svd(A, rtol=rtol)
    if svd.rank == 0:
        return np.zeros(np.asarray(A).shape)
    return (svd.U * f(svd.sigma)) @ svd.V.T


def gmf_apply_factors(f, U, sigma, V, b):
    """f◇(A) b = U_r (f(sigma_r) * V_r^T b) for A = U diag(sigma) V^T.

    ``sigma`` is descending; values at or below RANK_RTOL * sigma_1 are dropped
    as in ``compact_svd``. f◇(A) itself is never formed.
    """
    svd = _truncated(U, sigma, V.T)
    if svd.rank == 0:
        return np.zeros(svd.U.shape[0])
    return svd.U @ (f(svd.sigma) * (svd.V.T @ np.asarray(b, dtype=float)))


def gmf_apply_reference(f, A, b):
    """Ground truth for f◇(A) b, from a dense SVD of A."""
    U, s, Vt = np.linalg.svd(np.asarray(A, dtype=float), full_matrices=False)
    return gmf_apply_factors(f, U, s, Vt.T, b)


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

        def p(z, c=coeffs):
            w = np.asarray(z) ** 2
            acc = np.zeros_like(w)
            for j, cj in enumerate(c):
                acc = acc + cj * w ** j
            return acc * z

        lhs = gmf_dense(p, A)
        via_left = matrix_poly(coeffs, A @ A.T) @ A
        via_right = A @ matrix_poly(coeffs, A.T @ A)
        defects[f"odd_poly_deg{degree}_left"] = relative_error(via_left, lhs)
        defects[f"odd_poly_deg{degree}_right"] = relative_error(via_right, lhs)

    fA = gmf_dense(f, A)
    if f.small_at_zero:
        g = companion_g(f)
        gram = A.T @ A
        w, Q = np.linalg.eigh(gram)
        w = np.clip(w, 0.0, None)
        g_gram = (Q * g(w)) @ Q.T
        defects["f_equals_A_g_gram"] = relative_error(A @ g_gram, fA)

    pinvT = np.linalg.pinv(A).T
    defects["f_via_transpose"] = relative_error(pinvT @ gmf_dense(f, A.T) @ A, fA)
    defects["swap_transpose"] = relative_error(gmf_dense(f, A.T) @ A, A.T @ fA)

    return IdentityReport(defects)
