"""The part the three projection engines share: CGS2, breakdown and the loop.

Golub-Kahan, the fully orthogonalized rational method and the short
recurrence differ only in how they produce the columns of P_k and B_k; each
keeps its own basis step (``gk_step``, ``GramLanczos.advance``, ``rgk_step``).
Everything after that step is written once here: ``approximation_loop`` stores
p_k and column k of B_k in arrays allocated once, forms
y_k = ||b|| P_k f◇(B_k) e_1 and records the convergence trace.

Orthogonalization against a stored block is classical Gram-Schmidt applied
twice (``cgs2``): two block products per pass, as accurate as twice-applied
modified Gram-Schmidt ("twice is enough", Giraud, Langou & Rozlozník 2005).
Every engine normalizes its new basis vector by the one breakdown rule,
``normalize``: a vector of norm at most BREAKDOWN_RTOL times that of the vector
it was formed from has vanished, and the Krylov space is invariant.
"""

import numpy as np

from .errors import ArgumentError
from .reference import gmf_dense
from .traces import ConvergenceTrace, relative_error

BREAKDOWN_RTOL = 1e-14


def cgs2(V, w):
    """Orthogonalize w against the orthonormal columns of V by CGS2.

    Returns (w', c) with w = V c + w' and V^T w' ~ 0; c sums the
    coefficients of both passes. An empty block returns w unchanged.
    """
    c = V.T @ w
    w = w - V @ c
    c2 = V.T @ w
    return w - V @ c2, c + c2


def start_vector(b):
    """(b/||b||, ||b||) for a finite, nonzero start vector b.

    A norm that over- or underflows as a sum of squares is m ||b/m||, m = max |b_i|.
    """
    b = np.asarray(b, dtype=float)
    m = np.abs(b).max(initial=0.0)
    with np.errstate(over="ignore"):
        nb = np.linalg.norm(b)
        if 0.0 < m < np.inf and nb in (0.0, np.inf):
            nb = m * np.linalg.norm(b / m)
    if not (0.0 < m < np.inf and nb < np.inf):
        raise ArgumentError("start vector b must be finite, nonzero, of finite norm")
    return b / nb, nb


def normalize(w, scale):
    """(w/||w||, ||w||), or (0, 0.0) when ||w|| <= BREAKDOWN_RTOL * scale."""
    nw = float(np.linalg.norm(w))
    if nw <= BREAKDOWN_RTOL * scale:
        return np.zeros_like(w), 0.0
    return w / nw, nw


def approximation_loop(f, b, rows, k_max, step, reference=None, evaluate=True,
                       drift=False):
    """Approximations y_k = ||b|| P_k f◇(B_k) e_1 for k = 1..k_max, with their trace.

    ``step(P)`` is the engine's basis step: given the rows x (k-1) block of
    the columns of P produced so far, it returns (p_k, column k of B_k), or
    None once the engine stops (breakdown or invariance). With
    ``evaluate=False`` no y_k is formed; ``drift=True`` also records the
    orthogonality drift ||I - P_k^T P_k||_2. Returns (ys, trace).
    """
    k_max = int(k_max)
    if k_max < 1:
        raise ArgumentError("k_max must be >= 1")
    _, nb = start_vector(b)
    P = np.zeros((rows, k_max), order="F")
    B = np.zeros((k_max, k_max), order="F")
    gram = np.zeros((k_max, k_max)) if drift else None
    ys, drifts = [], []
    for k in range(1, k_max + 1):
        column = step(P[:, :k - 1])
        if column is None:
            break
        P[:, k - 1], B[:k, k - 1] = column
        if drift:
            gram[:k, k - 1] = gram[k - 1, :k] = P[:, :k].T @ P[:, k - 1]
            drifts.append(float(np.linalg.norm(np.eye(k) - gram[:k, :k], 2)))
        if evaluate:
            # rtol=0: f acts on every positive singular value of B_k; truncating
            # would mask the small-singular-value pollution of wide matrices
            ys.append(nb * (P[:, :k] @ gmf_dense(f, B[:k, :k], rtol=0.0)[:, 0]))
    return ys, error_trace(ys, reference, drifts)


def error_trace(ys, reference=None, drift=()):
    """Trace over k = 1, 2, ...: the relative error of each y_k, and the drift."""
    trace = ConvergenceTrace()
    for k in range(1, max(len(ys), len(drift)) + 1):
        err = None
        if reference is not None and k <= len(ys):
            err = relative_error(ys[k - 1], reference)
        trace.record(k, error=err, drift=drift[k - 1] if drift else None)
    return trace
