"""Rational Krylov projection for generalized matrix functions.

The basis Q_k of the rational subspace built from A^T A and b is produced by
a symmetric rational Lanczos recurrence derived from the pencil relation

    (A^T A) Q_{k+1} K = Q_{k+1} H,      K = I + D H,

where H is symmetric tridiagonal in its leading block and
D = diag(0, 1/xi_1, ..., 1/xi_k). Reading off column j gives a genuine
three-term step: with delta_i the inverse pole attached to q_i,

    b_j (I - delta_{j+1} M) q_{j+1}
        = (1 + delta_j a_j) M q_j + delta_{j-1} b_{j-1} M q_{j-1}
          - a_j q_j - b_{j-1} q_{j-1},

and a_j is fixed by orthogonality of q_{j+1} against q_j. With all poles at
infinity this is the classical Lanczos recurrence. The full-orthogonalization
variant additionally cleans the candidate against every stored column and is
the reference the short recurrence is validated against.

The second basis P_k is obtained by orthonormalizing the columns of A Q_k
(a QR decomposition A Q_k = P_k B_k with nonnegative diagonal of B_k), after
which y_k = ||b|| P_k f◇(B_k) e_1 approximates f◇(A) b. The QR is grown one
column per step: CGS2 of A q_k against P_{k-1} gives p_k and column k of B_k,
which the shared approximation loop stores and evaluates. On either side,
cleaning is the CGS2 kernel and breakdown is ``krylov.normalize``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .krylov import approximation_loop, cgs2, normalize
from .operators import solve_shifted_gram
from .poles import PoleSequence, require_poles

ZERO_POLE_WINDOW = 6


def _delta(xi):
    if xi == math.inf:
        return 0.0
    if xi == 0.0:
        raise ArgumentError("zero pole has no inverse-pole representation")
    return 1.0 / xi


class GramLanczos:
    """Orthonormal basis of the rational Krylov space of (A^T A, b).

    ``orthogonalize="full"`` keeps every column and cleans each candidate
    against all of them (reference quality); ``"short"`` keeps only the
    trailing columns required by the recurrence, so orthogonality is exact
    only in exact arithmetic and drift can be measured.

    Pole sequences containing zeros switch to windowed candidate steps
    (multiply for inf, Gram solve for 0, shifted solve otherwise) because the
    tridiagonal pencil normalization breaks down at a zero pole; alternating
    inf/0 sequences have a short recurrence of bounded width, which the
    window covers.
    """

    def __init__(self, op, b, poles, orthogonalize="full"):
        if orthogonalize not in ("full", "short"):
            raise ArgumentError("orthogonalize must be 'full' or 'short'")
        b = np.asarray(b, dtype=float)
        nb = np.linalg.norm(b)
        if nb == 0:
            raise ArgumentError("start vector must be nonzero")
        self.op = op
        self.poles = require_poles(poles)
        self.full = orthogonalize == "full"
        self.windowed = self.poles.has_zero
        self.n = op.cols
        self.breakdown = False

        self.q = b / nb
        self.q_prev = np.zeros(self.n)
        self.Mq_prev = np.zeros(self.n)
        self.b_prev = 0.0          # b_{j-1} of the pencil
        self.d_cur = 0.0           # delta_j for the current q_j
        self.d_prev = 0.0          # delta_{j-1}
        self.count = 1             # basis vectors produced so far

        self.columns = [self.q] if self.full else None
        self._window = [self.q]    # trailing columns cleaned against (zero poles)
        # pencil bookkeeping (H and K columns, built in full mode)
        self._h_cols = []
        self._k_cols = []

    def _orthogonalize(self, w, j):
        """Clean w against stored columns by CGS2; returns (w, coefficient vector)."""
        coeffs = np.zeros(j)
        if self.full or self.windowed:
            w, c = cgs2(np.array(self.columns if self.full else self._window).T, w)
            coeffs[j - c.size:] = c
        return w, coeffs

    def _raw_candidate(self, xi, q):
        """Windowed-mode candidate for the next direction."""
        if xi == math.inf:
            return self.op.gram_apply(q)
        if xi == 0.0:
            return solve_shifted_gram(self.op, 0.0, q)
        return solve_shifted_gram(self.op, xi, -xi * self.op.gram_apply(q))

    def advance(self):
        """Produce the next basis vector; returns it, or None at invariance."""
        if self.breakdown:
            return None
        j = self.count
        if j - 1 >= len(self.poles):
            raise ArgumentError(
                f"pole sequence exhausted: {len(self.poles)} poles support at most "
                f"{len(self.poles) + 1} basis vectors")
        xi = self.poles[j - 1]

        if self.windowed:
            w = self._raw_candidate(xi, self.q)
            scale = np.linalg.norm(w)
        else:
            d_new = _delta(xi)
            Mq = self.op.gram_apply(self.q)
            t0 = Mq + (self.d_prev * self.b_prev) * self.Mq_prev \
                - self.b_prev * self.q_prev
            t1 = self.d_cur * Mq - self.q
            if d_new == 0.0:
                y0, y1 = t0, t1
            else:
                y0 = solve_shifted_gram(self.op, xi, -xi * t0)
                y1 = solve_shifted_gram(self.op, xi, -xi * t1)
            denom = self.q @ y1
            if abs(denom) <= np.finfo(float).tiny:
                self.breakdown = True
                return None
            a_j = -(self.q @ y0) / denom
            w = y0 + a_j * y1
            scale = max(np.linalg.norm(w), np.linalg.norm(y0))
        w, coeffs = self._orthogonalize(w, j)
        q_new, b_new = normalize(w, scale)
        if b_new == 0.0:
            self.breakdown = True
            return None

        h_col = np.zeros(j + 1)
        k_col = np.zeros(j + 1)
        if self.windowed:
            if xi == math.inf:
                h_col[:j] = coeffs
                h_col[j] = b_new
                k_col[j - 1] = 1.0
            elif xi == 0.0:
                h_col[j - 1] = 1.0
                k_col[:j] = coeffs
                k_col[j] = b_new
            else:
                # M (q + delta*(stuff)) = stuff with stuff = coeffs + b_new e_{j+1}
                d_new = _delta(xi)
                h_col[:j] = coeffs
                h_col[j] = b_new
                k_col[:j] = d_new * coeffs
                k_col[j - 1] += 1.0
                k_col[j] = d_new * b_new
            d_new = 0.0 if xi in (math.inf, 0.0) else _delta(xi)
        else:
            h_col[:j] = coeffs
            if j >= 2:
                h_col[j - 2] += self.b_prev
            h_col[j - 1] += a_j
            h_col[j] = b_new
            k_col[j - 1] = 1.0
            if j >= 2:
                k_col[j - 2] = self.d_prev * self.b_prev
            k_col[j - 1] += self.d_cur * a_j
            k_col[j] = d_new * b_new
            k_col[:j] += d_new * coeffs

            self.Mq_prev = Mq
            self.b_prev = b_new

        self._h_cols.append(h_col)
        self._k_cols.append(k_col)
        self.d_prev = self.d_cur
        self.d_cur = d_new
        self.q_prev = self.q
        self.q = q_new
        self.count += 1
        if self.full:
            self.columns.append(q_new)
        elif self.windowed:
            self._window.append(q_new)
            del self._window[:-ZERO_POLE_WINDOW]
        return q_new

    def pencil(self):
        """Stacked (H, K) with H, K of shape (j+1, j) after j steps."""
        j = len(self._h_cols)
        H = np.zeros((j + 1, j))
        K = np.zeros((j + 1, j))
        for c, (h, k) in enumerate(zip(self._h_cols, self._k_cols)):
            H[:len(h), c] = h
            K[:len(k), c] = k
        return H, K


@dataclass(frozen=True)
class RationalArnoldiFactorization:
    """Basis Q with the pencil (H, K) of the decomposition M Q K = Q H."""

    Q: np.ndarray           # n x k, orthonormal
    H: np.ndarray           # k x (k-1)
    K: np.ndarray           # k x (k-1)
    poles: PoleSequence
    breakdown: bool

    @property
    def k(self):
        return self.Q.shape[1]

    def pencil_residual(self, op):
        """|| M Q K - Q H || / ||M||  (M = A^T A)."""
        if self.H.shape[1] == 0:
            return 0.0
        MQ = np.column_stack([op.gram_apply(self.Q[:, i]) for i in range(self.k)])
        res = MQ @ self.K - self.Q @ self.H
        return float(np.linalg.norm(res) / max(op.norm_estimate() ** 2, 1.0))

    def orthogonality_defect(self):
        k = self.k
        return float(np.linalg.norm(np.eye(k) - self.Q.T @ self.Q, 2))


def rational_arnoldi(op, b, poles, k):
    """Fully orthogonalized basis of the rational space of (A^T A, b).

    Produces at most k basis vectors using poles xi_1..xi_{k-1}; stops early
    (returning a truncated factorization) when the space becomes invariant.
    """
    k = int(k)
    if k < 1:
        raise ArgumentError("k must be >= 1")
    eng = GramLanczos(op, b, require_poles(poles, k), orthogonalize="full")
    while eng.count < k and not eng.breakdown:
        eng.advance()
    Q = np.column_stack(eng.columns)
    H, K = eng.pencil()
    return RationalArnoldiFactorization(Q, H, K, eng.poles, eng.breakdown)


@dataclass(frozen=True)
class GmfProjection:
    """Orthonormal P, Q with the upper-triangular projection B = P^T A Q."""

    P: np.ndarray
    Q: np.ndarray
    B: np.ndarray
    structure: str = "dense-upper"
    rank_deficient: bool = False


def _structure_tag(poles):
    if poles.all_infinite:
        return "bidiagonal"
    if poles.has_zero:
        return "dense-upper"
    return "quasiseparable-upper"


def project(op, Q, poles=None):
    """QR of A Q: returns P (= the Q-factor) and B (= R, nonnegative diagonal)."""
    Q = np.asarray(Q, dtype=float)
    AQ = np.column_stack([op.apply(Q[:, i]) for i in range(Q.shape[1])])
    W, R = np.linalg.qr(AQ)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    W = W * signs
    R = R * signs[:, None]
    deficient = bool(np.any(np.abs(np.diag(R)) <= 1e-13 * op.norm_estimate()))
    tag = "dense-upper" if poles is None else _structure_tag(poles)
    return GmfProjection(W, Q, R, structure=tag, rank_deficient=deficient)


def rational_gmf_approximate(f, op, b, poles, k_max, reference=None):
    """Approximations y_k = ||b|| P_k f◇(B_k) e_1 from the rational subspace."""
    eng = GramLanczos(op, b, require_poles(poles, k_max), orthogonalize="full")

    def step(P):
        q = eng.q if P.shape[1] == 0 else eng.advance()
        if q is None:
            return None
        Aq = op.apply(q)
        w, coeffs = cgs2(P, Aq)
        p, d = normalize(w, np.linalg.norm(Aq))
        return p, np.append(coeffs, d)

    return approximation_loop(f, b, op.rows, k_max, step, reference)
