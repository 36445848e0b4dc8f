"""Short-recurrence rational Golub-Kahan: O(1) vectors per step.

The projected matrix B_k = P_k^T A Q_k of the rational method is upper
triangular and quasiseparable: its strictly upper part is that of a rank-one
matrix, so it is determined by the diagonal d, the first superdiagonal beta
and the second superdiagonal gamma. One step updates

    w = A q_k
    beta_{k-1}  = w . p_{k-1}
    gamma_{k-2} = w . p_{k-2}
    x_k = (gamma_{k-2}/beta_{k-2}) x_{k-1} + beta_{k-1} p_{k-1}
    w = w - x_k;  d_k = ||w||;  p_k = w / d_k

where x_k carries the whole above-diagonal part of column k in the P basis,
so only two inner products are needed. The companion basis q_k comes from the
short (two-column) rational Lanczos recurrence on A^T A with the same poles;
a sequence that holds a zero pole has no such recurrence, and its q_k are
cleaned against every stored column instead (``GramLanczos``).
``rgk_run`` grows the dense B_k one column per step by the same rank-one
recursion (``reconstruct_dense`` applies it to all columns at once) and hands
p_k and that column to the shared approximation loop, which also builds
P_k^T P_k for the orthogonality drift of P_k.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .krylov import approximation_loop, cgs2, normalize, require_inputs
from .poles import require_poles
from .rational import GramLanczos

BETA_FALLBACK_RTOL = 1e-13


@dataclass
class QuasiseparableUpper:
    """Generator representation (d, beta, gamma) of the projected matrix."""

    d: list = field(default_factory=list)
    beta: list = field(default_factory=list)     # beta[k] = B[k, k+1]
    gamma: list = field(default_factory=list)    # gamma[k] = B[k, k+2]
    fallback_steps: list = field(default_factory=list)

    @property
    def k(self):
        return len(self.d)

    def generators(self):
        """Vectors u, v with triu(B, 1) = triu(u v^T, 1).

        Built from the column recursion: v_0 = 0 and v_{j+1} is the running
        product of the ratios gamma_t/beta_t, t < j, so u_i = beta_i / v_{i+1}.
        """
        k = self.k
        u = np.zeros(k)
        v = np.zeros(k)
        if k < 2:
            return u, v
        beta = np.asarray(self.beta[:k - 2])
        if np.any(beta == 0.0):
            raise ArgumentError(
                "vanished beta: generator form unavailable (fallback path)")
        v[1:] = np.cumprod(np.append(1.0, np.asarray(self.gamma[:k - 2]) / beta))
        u[:k - 1] = np.asarray(self.beta[:k - 1]) / v[1:]
        return u, v


def reconstruct_dense(B):
    """Dense upper-triangular matrix from the (d, beta, gamma) generators.

    Entry (i, j) for j > i + 1 follows the rank-one column recursion
    B[:, j] = (gamma_{j-2}/beta_{j-2}) * B[:, j-1] above the superdiagonal.
    """
    k = B.k
    out = np.zeros((k, k))
    column = None
    for j in range(k):
        column = _dense_column(B, j, column)
        out[:j + 1, j] = column
    return out


def _dense_column(B, j, previous):
    """Column j (entries 0..j) of the dense matrix, from column j-1."""
    column = np.zeros(j + 1)
    column[j] = B.d[j]
    if j >= 1:
        column[j - 1] = B.beta[j - 1]
    if j >= 2:
        column[j - 2] = B.gamma[j - 2]
    if j >= 3:
        if B.beta[j - 2] == 0.0:
            raise ArgumentError(
                "vanished beta below a gamma entry: column recursion undefined")
        column[:j - 2] = (B.gamma[j - 2] / B.beta[j - 2]) * previous[:j - 2]
    return column


def rgk_step(Aq, p_history, x_prev, beta_prev):
    """One step of the short-recurrence update of P and B.

    ``Aq`` is A q_k and ``p_history`` the stored columns p_1..p_{k-1} as the
    rows of an array (or a sequence of vectors), empty at k = 1. Returns
    (p_k, d_k, beta_{k-1}, gamma_{k-2}, x_k, used_fallback), with beta_{k-1}
    None for k < 2 and gamma_{k-2} None for k < 3; at breakdown
    (``krylov.normalize`` against ||A q_k||) p_k = 0 and d_k = 0. When
    |beta_{k-2}| has vanished (against ||A q_k|| too) the rank-one recursion
    for x_k is undefined, and the step falls back to CGS2 against the stored
    columns for this step only.
    """
    w = Aq
    scale = np.linalg.norm(w)
    used_fallback = False

    if len(p_history) == 0:
        x_k = np.zeros_like(w)
        beta_km1 = None
        gamma_km2 = None
    elif len(p_history) == 1:
        beta_km1 = float(w @ p_history[-1])
        gamma_km2 = None
        x_k = beta_km1 * p_history[-1]
    else:
        beta_km1 = float(w @ p_history[-1])
        gamma_km2 = float(w @ p_history[-2])
        if abs(beta_prev) <= BETA_FALLBACK_RTOL * scale:
            used_fallback = True
            history = np.asarray(p_history).T
            x_k = history @ cgs2(history, w)[1]
        else:
            x_k = (gamma_km2 / beta_prev) * x_prev + beta_km1 * p_history[-1]

    p_k, d_k = normalize(w - x_k, scale)
    return p_k, d_k, beta_km1, gamma_km2, x_k, used_fallback


def rgk_run(f, op, b, poles, k_max, reference=None):
    """Run the short-recurrence rational Golub-Kahan method.

    The recurrence itself keeps two p-columns, two q-columns and x_k (every
    q-column when a pole is zero, see ``GramLanczos``); the produced P columns
    go to the shared loop's write-once output array because the approximation
    y_k = ||b|| P_k f◇(B_k) e_1 needs them (they are never
    re-orthogonalized). The trace records relative errors when a reference is
    supplied, and holds P_k^T P_k: its ``orthogonality_drift``
    ||I - P_k^T P_k||_2 per iteration is computed when first read. The shifted
    solves are ``GramLanczos``'s. Returns (ys, B, trace).
    """
    k_max = require_inputs(op, b, k_max, reference)
    eng = GramLanczos(op, b, require_poles(poles, k_max), orthogonalize="short")
    B = QuasiseparableUpper()
    x_prev = None              # x_1 = 0 is made by the first step
    column = None

    def step(P, _z):
        nonlocal x_prev, column
        k = P.shape[1] + 1
        if k > 1 and eng.advance() is None:
            return None
        # the step divides by beta_{k-2}, the last beta appended so far
        p_k, d_k, beta_km1, gamma_km2, x_prev, fallback = rgk_step(
            eng.apply_q(), P.T, x_prev, B.beta[-1] if B.beta else 0.0)
        if d_k == 0.0:
            return None
        if fallback:
            B.fallback_steps.append(k)
        B.d.append(d_k)
        if beta_km1 is not None:
            B.beta.append(beta_km1)
        if gamma_km2 is not None:
            B.gamma.append(gamma_km2)
        column = _dense_column(B, k - 1, column)
        return p_k, column

    ys, trace = approximation_loop(f, b, op.rows, k_max, step, reference, drift=True)
    return ys, B, trace
