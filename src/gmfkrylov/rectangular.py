"""Transpose trick for wide matrices (m < n).

Directly projecting a wide A traps spurious near-zero singular values in the
projected matrix, which functions with large derivative at 0 amplify. Writing
y = (A^+)^T w with w = f◇(A^T) A b runs the Krylov method on A^T instead
(whose Gram matrix A A^T is positive definite when sigma_m > 0) and recovers
y from the least squares problem min ||A^T y - w||.
"""

import numpy as np

from .errors import ArgumentError
from .golub_kahan import gk_approximate
from .krylov import error_trace
from .rational import rational_gmf_approximate
from .short_recurrence import rgk_run

METHODS = ("golub_kahan", "rational_full", "rational_short")


def gmf_via_transpose(f, op, b, method, poles=None, k_max=20, reference=None,
                      reorth=True):
    """Approximate f◇(A) b through f◇(A^T) (A b) and a least squares solve.

    The least squares factor (a pseudoinverse of A^T) is formed once from the
    dense payload and reused across all iterations; rank deficiency is
    handled by the minimum-norm solution. Returns (ys, trace).
    """
    if method not in METHODS:
        raise ArgumentError(f"method must be one of {METHODS}")
    if op.dense is None:
        raise ArgumentError("the transpose trick needs a dense payload at desk scale")
    b = np.asarray(b, dtype=float)

    op_t = op.transpose()
    c = op.apply(b)
    if np.linalg.norm(c) == 0:
        raise ArgumentError("A b = 0: nothing to approximate")

    if method == "golub_kahan":
        ws, _ = gk_approximate(f, op_t, c, k_max, reorth=reorth)
    elif method == "rational_full":
        ws, _ = rational_gmf_approximate(f, op_t, c, poles, k_max)
    else:
        ws, _, _ = rgk_run(f, op_t, c, poles, k_max)

    lsq = np.linalg.pinv(op.dense.T)   # min-norm solve of A^T y = w, reused per k
    ys = [lsq @ w for w in ws]
    return ys, error_trace(ys, reference)
