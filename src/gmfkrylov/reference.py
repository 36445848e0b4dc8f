"""Dense SVD ground truth for f◇(A).

This is the oracle the projection methods are validated against; it is meant
for desk-scale matrices only. ``gmf_apply_factors`` takes f◇(A) b from an SVD
already at hand (a synthesized matrix's own factors), ``gmf_apply_reference``
from a dense SVD of A.
"""

from dataclasses import dataclass

import numpy as np

RANK_RTOL = 1e-13


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
