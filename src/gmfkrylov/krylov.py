"""The part the projection engines share: CGS2, breakdown and the loop.

The fully orthogonalized rational method and the short recurrence differ only
in how they produce the columns of P_k and B_k; each keeps its own basis step
(``GramLanczos.advance`` with CGS2 of A q_k, and ``rgk_step``). Golub-Kahan is
either of them with every pole at infinity.
Everything after that step is written once here: ``approximation_loop`` stores
p_k and column k of B_k in arrays allocated once, forms
y_k = ||b|| P_k f◇(B_k) e_1 and records its error in the convergence trace.

B_k only ever grows by one column, B_{k+1} = [[B_k, c], [0, delta]], so the
loop does not take a fresh SVD of B_k per k: ``BorderedSvd`` updates U_k, the
singular values and the first row of V_k (all that f◇(B_k) e_1 needs). The
middle factor of the update is a rank-one change of a diagonal, whose SVD
comes from the secular equation (Bunch & Nielsen 1978; LAPACK ``dlasd4``) in
O(k^2); deflation of tiny and close entries and the recomputed z of Gu &
Eisenstat (1995) keep the singular vectors orthogonal. A step costs one
``dlasd4`` call per root, each writing one row, one gemm U_k L and O(k^2)
numpy work; U is not copied, and only a step where something deflates sorts
the vectors. If ``dlasd4`` fails or a result is not finite, the dense SVD of
B_k (``gmf_dense``) takes over for the rest of the run.

Orthogonalization against a stored block is classical Gram-Schmidt applied
twice (``cgs2``): two block products per pass, as accurate as twice-applied
modified Gram-Schmidt ("twice is enough", Giraud, Langou & Rozlozník 2005).
Every engine normalizes its new basis vector by the one breakdown rule,
``normalize``: a vector of norm at most BREAKDOWN_RTOL times that of the vector
it was formed from has vanished, and the Krylov space is invariant.
"""

import numbers

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
    """Vectors of one length kept as the rows of a block of one row, doubled when full."""

    def __init__(self):
        self.block, self.size = np.empty((0, 0)), 0

    @property
    def filled(self):
        """The kept vectors as the rows of a view."""
        return self.block[:self.size]

    def append(self, v):
        if self.size == len(self.block):
            self.block = np.vstack((self.block.reshape(-1, v.size),
                                    np.empty((max(self.size, 1), v.size))))
        self.block[self.size] = v
        self.size += 1


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


def require_count(name, value, least=1):
    """``value`` as an int, once it is an integer, not a bool, of at least ``least``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise ArgumentError(f"{name} must be an integer >= {least}, got {value!r}")


def require_number(name, value):
    """``value`` as a float, once it is a real number, not a bool (a string is none)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ArgumentError(f"{name} must be a real number, got {value!r}")


def require_inputs(op, b, k_max, reference=None, size=None):
    """k_max as an int, once b is a finite vector of length n, the reference
    (if given) a finite vector of length ``size`` (default m) and k_max a count
    (``require_count``): every engine checks these before its first operator
    product."""
    _require_vector("b", b, op.cols)
    if reference is not None:
        _require_vector("reference", reference, op.rows if size is None else size)
    return require_count("k_max", k_max)


def _require_vector(name, x, size):
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        x = None
    if x is None or x.shape != (size,) or not np.all(np.isfinite(x)):
        raise ArgumentError(f"{name} must be a finite vector of length {size}")


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
    d = (0, sigma). Index 0 is the new row and column throughout. W is never
    formed: with nothing deflated, U_{k+1} = [U_k L[1:]; L[0]] for the left
    vectors L of N goes straight into a new array, after one dlasd4 call per
    root and O(k^2) numpy work.
    """

    def __init__(self):
        self.U, self.sigma, self.v0 = np.zeros((0, 0)), np.zeros(0), np.zeros(0)

    def update(self, column, f):
        """Append column (c, delta); f◇(B_{k+1}) e_1, or None if the update failed."""
        k = self.sigma.size
        z = np.concatenate(([column[k]], self.U.T @ column[:k]))
        d = np.concatenate(([0.0], self.sigma))
        v0 = np.concatenate(([float(k == 0)], self.v0))
        scale = max(np.abs(z).max(), d[-1])
        tol, zero = DEFLATION_RTOL * scale, ZERO_RTOL * scale
        turns = []                  # (i, j, G): columns i, j of W become W[:, [i, j]] @ G
        # a sigma_j <= eps^2 scale is an exact 0 (far below its roundoff, and
        # its square stays clear of underflow), so row j of N is z_j e_1^T: a
        # rotation folds it into row 0. Any larger sigma stays, since f acts on
        # every positive singular value
        for j in np.flatnonzero(d[1:] <= zero) + 1:
            d[j], r = 0.0, np.hypot(z[0], z[j])
            if r > 0.0:
                turns.append((0, j, np.array([[z[0], -z[j]], [z[j], z[0]]]) / r))
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
            turns.append((i, j, G))
            v0[[i, j]] = v0[[i, j]] @ G
            z[i], z[j], keep[i] = 0.0, tau, False
        J = np.flatnonzero(keep)
        dj = d[J] / scale
        secular = _secular(dj, z[J] / scale)
        if secular is None:
            return None
        roots, L = secular
        L2 = L * L                  # the right vectors are (-1, d L)
        v = ((v0[J] * dj) @ L - v0[0]) / np.sqrt(1.0 + (dj * dj) @ L2)
        L /= np.sqrt(L2.sum(axis=0))
        # U_{k+1} = W X = [U_k X[1:]; X[0]] for N's left vectors X: L, whose roots
        # ascend, unless the deflated triplets and a zero row 0 of N (sigma = 0,
        # vector e_1) join it, with W's rotations applied to X's rows
        sigma, X = scale * roots, L
        if not keep.all():
            sigma, X = d, np.eye(k + 1)
            sigma[J], X[np.ix_(J, J)], v0[0], v0[J] = scale * roots, L, 0.0, v
            for i, j, G in reversed(turns):
                X[[i, j]] = G @ X[[i, j]]
            order = np.argsort(sigma, kind="stable")
            sigma, X, v = sigma[order], X[:, order], v0[order]
        U = np.empty((k + 1, k + 1))
        np.matmul(self.U, X[1:], out=U[:k])
        U[k] = X[0]
        self.U, self.sigma, self.v0 = U, sigma, v
        # rtol=0: f acts on every positive singular value of B_k; truncating
        # would mask the small-singular-value pollution of wide matrices
        p = np.searchsorted(self.sigma, 0.0, side="right")
        out = self.U[:, p:] @ (f(self.sigma[p:]) * self.v0[p:])
        return out if np.all(np.isfinite(out)) else None


def _secular(d, z):
    """Roots of 1 + sum_j z_j^2 / (d_j^2 - s^2) for 0 <= d_1 < d_2 < ... and the
    matrix zhat_j / (d_j^2 - s_i^2) of unnormalized left vectors (column i), with
    zhat the z for which the roots are exact (Gu & Eisenstat's, as in dlasd3);
    None if dlasd4 fails. Root i's differences fill row i of an array, and the
    vectors are returned as its transposed view.
    """
    n = d.size
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if n == 1:                      # dlasd4 returns no differences for n = 1
        roots = np.hypot(d, z)
        DS = ((d - roots) * (d + roots))[None, :]
    else:
        rho = z @ z
        zn = z / np.sqrt(rho)
        roots, DS, work = np.empty(n), np.empty((n, n)), np.empty((n, n))
        for i in range(n):
            DS[i], roots[i], work[i], info = dlasd4(i, d, zn, rho)
            if info != 0:
                return None
        DS *= work                  # d_j^2 - root_i^2, free of cancellation
    # root i lies in (d_i, d_{i+1}): pair it with d_{i+1} for j <= i and with
    # d_i for j > i, so that every factor is a ratio in (0, 1]
    E = (d - d[:, None]) * (d + d[:, None])     # E[m, j] = d_j^2 - d_m^2
    zh = np.prod(DS[:-1] / np.where(np.tri(n - 1, n, dtype=bool), E[1:], E[:-1]), axis=0)
    zh = np.copysign(np.sqrt(np.abs(zh * DS[-1])), z)
    return roots, (zh / DS).T


def approximation_loop(f, b, rows, k_max, step, reference=None, drift=False, basis=None):
    """Approximations y_k = ||b|| P_k f◇(B_k) e_1 for k = 1..k_max, with their trace.

    At most min(len(b), rows + 1) steps run, the Krylov spaces' dimension (m + 1
    for a wide A, whose b may leave range(A^T)): past it a basis vector is
    roundoff that the breakdown test need not catch.

    ``step(P, z)`` is the engine's basis step: given the rows x (k-1) block of
    the columns of P produced so far and z = f◇(B_{k-1}) e_1 (None at k = 1),
    it returns (p_k, column k of B_k), or None once the engine stops
    (breakdown or invariance). ``drift=True`` also builds P_k^T P_k, one
    O(rows k) column per step, and hands it to the trace, whose
    ``orthogonality_drift`` takes ||I - P_k^T P_k||_2 when first read.
    ``basis``, the ``Rows`` that hold q_1..q_k once step k returns, makes
    y_k = ||b|| Q_k B_k^T f◇(B_k) e_1 instead: O(k^2) plus one O(n k) product.
    Returns (ys, trace), the trace's errors those of each y_k to ``reference``.
    """
    _, nb = start_vector(b)
    k_max = min(k_max, len(b), rows + 1)
    P = np.zeros((rows, k_max), order="F")
    B = np.zeros((k_max, k_max), order="F")
    gram = np.zeros((k_max, k_max)) if drift else None
    svd = BorderedSvd()
    ys, errors, z, k = [], [], None, 0
    while k < k_max:
        column = step(P[:, :k], z)
        if column is None:
            break
        k += 1
        P[:, k - 1], B[:k, k - 1] = column
        if drift:
            gram[:k, k - 1] = gram[k - 1, :k] = P[:, :k].T @ P[:, k - 1]
        z = svd.update(B[:k, k - 1], f) if svd is not None else None
        if z is None:           # the dense SVD of B_k from here on
            svd = None
            z = gmf_dense(f, B[:k, :k], rtol=0.0)[:, 0]
        ys.append(nb * (P[:, :k] @ z if basis is None
                        else (B[:k, :k].T @ z) @ basis.filled))
        if reference is not None:
            errors.append(relative_error(ys[-1], reference))
    return ys, ConvergenceTrace(list(range(1, k + 1)), errors,
                                None if gram is None else gram[:k, :k])
