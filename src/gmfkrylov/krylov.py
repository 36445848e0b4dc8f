"""The part the three projection engines share: CGS2, breakdown and the loop.

Golub-Kahan, the fully orthogonalized rational method and the short
recurrence differ only in how they produce the columns of P_k and B_k; each
keeps its own basis step (``gk_step``, ``GramLanczos.advance``, ``rgk_step``).
Everything after that step is written once here: ``approximation_loop`` stores
p_k and column k of B_k in arrays allocated once, forms
y_k = ||b|| P_k f◇(B_k) e_1 and records the convergence trace.

B_k only ever grows by one column, B_{k+1} = [[B_k, c], [0, delta]], so the
loop does not take a fresh SVD of B_k per k: ``BorderedSvd`` updates U_k, the
singular values and the first row of V_k (all that f◇(B_k) e_1 needs). The
middle factor of the update is a rank-one change of a diagonal, whose SVD
comes from the secular equation (Bunch & Nielsen 1978; LAPACK ``dlasd4``) in
O(k^2); deflation of tiny and close entries and the recomputed z of Gu &
Eisenstat (1995) keep the singular vectors orthogonal. What is left per step
is one gemm with U_k over the non-deflated columns. If ``dlasd4`` fails or a
result is not finite, the dense SVD of B_k (``gmf_dense``) takes over for the
rest of the run.

Orthogonalization against a stored block is classical Gram-Schmidt applied
twice (``cgs2``): two block products per pass, as accurate as twice-applied
modified Gram-Schmidt ("twice is enough", Giraud, Langou & Rozlozník 2005).
Every engine normalizes its new basis vector by the one breakdown rule,
``normalize``: a vector of norm at most BREAKDOWN_RTOL times that of the vector
it was formed from has vanished, and the Krylov space is invariant.
"""

import numpy as np
from scipy.linalg.lapack import dlasd4

from .errors import ArgumentError
from .reference import gmf_dense
from .traces import ConvergenceTrace, relative_error

BREAKDOWN_RTOL = 1e-14
DEFLATION_RTOL = 8 * np.finfo(float).eps
ZERO_RTOL = np.finfo(float).eps ** 2


def cgs2(V, w):
    """Orthogonalize w against the orthonormal columns of V by CGS2.

    Returns (w', c) with w = V c + w' and V^T w' ~ 0; c sums the
    coefficients of both passes. An empty block returns w unchanged.
    """
    c = V.T @ w
    w = w - V @ c
    c2 = V.T @ w
    return w - V @ c2, c + c2


class Rows:
    """Vectors of one length kept as the rows of a block that doubles when full;
    with ``window`` set, only the last ``window`` of them, which a full block
    then moves to its front instead of growing."""

    def __init__(self, window=None):
        self.block, self.start, self.size, self.window = np.empty((0, 0)), 0, 0, window

    @property
    def filled(self):
        """The kept vectors as the rows of a view."""
        return self.block[self.start:self.size]

    def append(self, v):
        if self.size == len(self.block) and self.start:
            self.block[:self.size - self.start] = self.filled
            self.size, self.start = self.size - self.start, 0
        elif self.size == len(self.block):
            self.block = np.vstack((self.block.reshape(-1, v.size),
                                    np.empty((max(self.size, 16), v.size))))
        self.block[self.size] = v
        self.size += 1
        self.start = max(self.size - (self.window or self.size), 0)


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


class BorderedSvd:
    """SVD of an upper-triangular B_k that grows by one column per step.

    Keeps U_k, the singular values sigma (ascending) and v0 = V_k^T e_1, with 0
    for a zero singular value: B_k's null vectors stay null vectors of every
    later B, so their right vectors enter neither f◇(B) e_1 nor a later step. With
    z = (delta, U_k^T c), B_{k+1} = W N [e_{k+1}, (V_k; 0)]^T, where the left
    basis W = [e_{k+1}, (U_k; 0)] and N = diag(0, sigma) + z e_1^T, whose
    singular values are the roots of 1 + sum_j z_j^2 / (d_j^2 - s^2) with
    d = (0, sigma). Index 0 is the new row and column throughout.
    """

    def __init__(self):
        self.U, self.sigma, self.v0 = np.zeros((0, 0)), np.zeros(0), np.zeros(0)

    def update(self, column, f):
        """Append column (c, delta); f◇(B_{k+1}) e_1, or None if the update failed."""
        k = self.sigma.size
        z = np.concatenate(([column[k]], self.U.T @ column[:k]))
        d = np.concatenate(([0.0], self.sigma))
        v0 = np.concatenate(([float(k == 0)], self.v0))
        W = np.zeros((k + 1, k + 1))
        W[k, 0] = 1.0
        W[:k, 1:] = self.U
        scale = max(np.abs(z).max(), d[-1])
        tol, zero = DEFLATION_RTOL * scale, ZERO_RTOL * scale
        # a sigma_j <= eps^2 scale is an exact 0 (far below its roundoff, and
        # its square stays clear of underflow), so row j of N is z_j e_1^T: a
        # rotation folds it into row 0. Any larger sigma stays, since f acts on
        # every positive singular value
        for j in np.flatnonzero(d[1:] <= zero) + 1:
            d[j], r = 0.0, np.hypot(z[0], z[j])
            if r > 0.0:
                W[:, [0, j]] = W[:, [0, j]] @ np.array([[z[0], -z[j]], [z[j], z[0]]]) / r
                z[0], z[j] = r, 0.0
        # a tiny z_j leaves (d_j, W e_j, e_j) a singular triplet of N (dlasd2).
        # Of two d equal to working accuracy, a rotation on both sides zeroes
        # the first z; the test is relative, so roundoff-level singular values
        # (wide matrices) stay apart, as they do in a dense SVD
        keep = np.abs(z) > tol
        keep[0] = abs(z[0]) > zero  # else row 0 of N vanished: sigma = 0
        live = np.flatnonzero(keep[1:]) + 1
        for t in np.flatnonzero(np.diff(d[live]) <= DEFLATION_RTOL * d[live[1:]]):
            i, j = live[t], live[t + 1]
            tau = np.hypot(z[i], z[j])
            G = np.array([[z[j], z[i]], [-z[i], z[j]]]) / tau
            W[:, [i, j]] = W[:, [i, j]] @ G
            v0[[i, j]] = v0[[i, j]] @ G
            z[i], z[j], keep[i] = 0.0, tau, False
        deflated = np.flatnonzero(~keep[1:]) + 1
        J = np.flatnonzero(keep)
        dj = d[J] / scale
        secular = _secular(dj, z[J] / scale)
        if secular is None:
            return None
        roots, zh, L = secular
        R = dj[:, None] * L         # the right vectors are (-1, d L)
        L /= np.linalg.norm(L, axis=0)
        sigma = [d[deflated], scale * roots]
        U = [W[:, deflated], W[:, J] @ L]
        v = [v0[deflated], (v0[J] @ R - v0[0]) / np.sqrt(1.0 + (R * R).sum(axis=0))]
        if not keep[0]:             # sigma = 0, with left vector e_{k+1}
            sigma.append([0.0])
            U.append(W[:, :1])
            v.append([0.0])
        self.sigma = np.concatenate(sigma)
        order = np.argsort(self.sigma, kind="stable")
        self.sigma = self.sigma[order]
        self.U = np.concatenate(U, axis=1)[:, order]
        self.v0 = np.concatenate(v)[order]
        # rtol=0: f acts on every positive singular value of B_k; truncating
        # would mask the small-singular-value pollution of wide matrices
        p = np.searchsorted(self.sigma, 0.0, side="right")
        out = self.U[:, p:] @ (f(self.sigma[p:]) * self.v0[p:])
        return out if np.all(np.isfinite(out)) else None


def _secular(d, z):
    """Roots of 1 + sum_j z_j^2 / (d_j^2 - s^2) for 0 <= d_1 < d_2 < ..., the z
    for which they are exact (Gu & Eisenstat's, as in dlasd3) and the matrix
    zhat_j / (d_j^2 - s_i^2) of unnormalized left vectors; None if dlasd4 fails.
    """
    n = d.size
    if n == 0:
        return np.zeros(0), np.zeros(0), np.zeros((0, 0))
    if n == 1:                      # dlasd4 returns no differences for n = 1
        roots = np.hypot(d, z)
        DS = ((d - roots) * (d + roots))[:, None]
    else:
        rho = z @ z
        zn = z / np.sqrt(rho)
        roots, DS, work = np.empty(n), np.empty((n, n)), np.empty((n, n))
        for i in range(n):
            DS[:, i], roots[i], work[:, i], info = dlasd4(i, d, zn, rho)
            if info != 0:
                return None
        DS *= work                  # d_j^2 - root_i^2, free of cancellation
    # root i lies in (d_i, d_{i+1}): pair it with d_i below i and d_{i+1} from
    # i on, so that every factor is a ratio in (0, 1]
    other = np.arange(n - 1)[None, :]
    other = d[other + (other >= np.arange(n)[:, None])]
    zh = np.prod(DS[:, :-1] / ((d[:, None] - other) * (d[:, None] + other)), axis=1)
    zh = np.copysign(np.sqrt(np.abs(zh * DS[:, -1])), z)
    return roots, zh, zh[:, None] / DS


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
    svd = BorderedSvd()
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
            z = svd.update(B[:k, k - 1], f) if svd is not None else None
            if z is None:       # the dense SVD of B_k from here on
                svd = None
                z = gmf_dense(f, B[:k, :k], rtol=0.0)[:, 0]
            ys.append(nb * (P[:, :k] @ z))
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
