"""The engine table, and the transpose trick for wide matrices (m < n).

``ENGINES`` maps each engine name (``rational_full``; ``rational_short``) to
one call shape, ``(f, op, b, poles, k_max, reference=None) -> (ys, trace)``.
Golub-Kahan is either engine with every pole at infinity
(``polynomial_poles``): ``rational_full`` reorthogonalizes, ``rational_short``
does not, and ``gk_approximate`` runs it through this table. Each entry
looks its engine up by module name when called and stores no function
object, so a profiler that rebinds ``rational_gmf_approximate`` and
``rgk_run`` sees the calls made through the table.

Directly projecting a wide A traps spurious near-zero singular values in the
projected matrix, which functions with large derivative at 0 amplify. Writing
y = (A^+)^T w with w = f◇(A^T) A b runs the Krylov method on A^T instead
(whose Gram matrix A A^T is positive definite when sigma_m > 0) and recovers
y from the least squares problem min ||A^T y - w||.
"""

import numpy as np

from .errors import ArgumentError
from .krylov import error_trace, require_inputs
from .rational import rational_gmf_approximate
from .short_recurrence import rgk_run


ENGINES = {
    "rational_full": lambda f, op, b, poles, k_max, reference=None:
        rational_gmf_approximate(f, op, b, poles, k_max, reference=reference),
    # rgk_run returns (ys, B, trace)
    "rational_short": lambda f, op, b, poles, k_max, reference=None:
        rgk_run(f, op, b, poles, k_max, reference=reference)[::2],
}


def gmf_via_transpose(f, op, b, method, poles, k_max=20, reference=None):
    """Approximate f◇(A) b through f◇(A^T) (A b) and a least squares solve.

    ``method`` names the inner engine in ``ENGINES``, run on ``poles``. The
    least squares factor (a pseudoinverse of A^T) is formed once from the
    dense payload and reused across all iterations; rank deficiency is
    handled by the minimum-norm solution. Returns (ys, trace).
    """
    if not isinstance(method, str) or method not in ENGINES:
        raise ArgumentError(f"method must be one of {tuple(ENGINES)}")
    if op.dense is None:
        raise ArgumentError("the transpose trick needs a dense payload at desk scale")
    k_max = require_inputs(op, b, k_max, reference)
    b = np.asarray(b, dtype=float)

    op_t = op.transpose()
    c = op.apply(b)
    if not np.any(c):
        raise ArgumentError("A b = 0: nothing to approximate")

    ws, _ = ENGINES[method](f, op_t, c, poles, k_max)

    lsq = np.linalg.pinv(op.dense.T)   # min-norm solve of A^T y = w, reused per k
    ys = [lsq @ w for w in ws]
    return ys, error_trace(ys, reference)
