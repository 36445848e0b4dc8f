"""The engine table, and the transpose trick for wide matrices (m < n).

``ENGINES`` maps each engine name (``rational_full``; ``rational_short``) to
one call shape, ``(f, op, b, poles, k_max, reference=None) -> (ys, trace)``.
Golub-Kahan is either engine with every pole at infinity
(``polynomial_poles``): ``rational_full`` reorthogonalizes, ``rational_short``
does not, and ``gk_approximate`` runs it through this table. Each entry
looks its engine up by module name when called and stores no function
object, so a profiler that rebinds ``rational_gmf_approximate`` and
``rgk_run`` sees the calls made through the table.

Projecting a wide A directly traps spurious near-zero singular values in the
projected matrix, which functions with large derivative at 0 amplify. The
transpose trick, f◇(A) b = h(A A^T) A b with h(lambda) = f(sqrt lambda)/sqrt
lambda (Arrigo, Benzi & Fenu 2016), runs the full engine on A^T from c = A b,
so A^T Q_k = P_k B_k. With g(sigma) = f(sigma)/sigma^2 the run's own Q_k gives
y_k = ||c|| Q_k B_k^T g◇(B_k) e_1 = ||c|| Q_k B_k^+ f◇(B_k) e_1, the
minimum-norm solution of A^T y = ||c|| P_k f◇(B_k) e_1 (Q_k lies in range(A)).
A enters only through products, so a matrix-free operator works too.
"""

import numpy as np

from .errors import ArgumentError
from .krylov import require_inputs
from .rational import rational_gmf_approximate
from .reference import RANK_RTOL
from .short_recurrence import rgk_run


ENGINES = {
    "rational_full": lambda f, op, b, poles, k_max, reference=None:
        rational_gmf_approximate(f, op, b, poles, k_max, reference=reference),
    # rgk_run returns (ys, B, trace)
    "rational_short": lambda f, op, b, poles, k_max, reference=None:
        rgk_run(f, op, b, poles, k_max, reference=reference)[::2],
}


def gmf_via_transpose(f, op, b, poles, k_max=20, reference=None):
    """Approximate f◇(A) b by the transpose trick; returns (ys, trace).

    g is f(sigma)/sigma^2 on sigma > RANK_RTOL sigma_max(B_k), the rank cut of
    ``gmf_apply_factors``, and 0 elsewhere; f sees only the kept sigma.
    """
    k_max = require_inputs(op, b, k_max, reference)
    c = op.apply(np.asarray(b, dtype=float))
    if not np.any(c):
        raise ArgumentError("A b = 0: nothing to approximate")

    def g(sigma):
        keep = sigma > RANK_RTOL * sigma.max(initial=0.0)
        out = np.zeros_like(sigma)
        out[keep] = f(sigma[keep]) / sigma[keep] ** 2
        return out

    return rational_gmf_approximate(g, op.transpose(), c, poles, k_max, reference,
                                    q_side=True)
