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

and a_j is fixed by orthogonality of q_{j+1} against q_j. A finite pole takes
one shifted solve per right-hand side, but when it repeats (delta_{j+1} =
delta_j) the second is -(M - xi I) q_j, solved by -q_j with no solve. With all
poles at infinity this is the classical Lanczos recurrence. The
full-orthogonalization variant additionally cleans the candidate against every
stored column and is the reference the short recurrence is validated against.

The second basis P_k is obtained by orthonormalizing the columns of A Q_k
(a QR decomposition A Q_k = P_k B_k with nonnegative diagonal of B_k), after
which y_k = ||b|| P_k f◇(B_k) e_1 approximates f◇(A) b. The QR is grown one
column per step: CGS2 of A q_k (formed once, as M q_k = A^T (A q_k) needs it
too) against P_{k-1} gives p_k and column k of B_k, which the shared
approximation loop stores and evaluates. On either side,
cleaning is the CGS2 kernel and breakdown is ``krylov.normalize``.
"""

import math
import weakref

import numpy as np

from .errors import ArgumentError
from .krylov import (Rows, approximation_loop, cgs2, normalize, require_inputs,
                     start_vector)
from .operators import GRAM_SOLVE_RTOL, KrylovBasis, ShiftedGram, solve_shifted_gram
from .poles import require_poles


class GramLanczos:
    """Orthonormal basis of the rational Krylov space of (A^T A, b).

    ``orthogonalize="full"`` keeps every column and cleans each candidate
    against all of them (reference quality); ``"short"`` keeps only the two
    trailing columns the three-term step reads, so orthogonality is exact
    only in exact arithmetic and drift can be measured.

    A zero pole breaks the tridiagonal pencil normalization, so a sequence
    that holds one takes rational Arnoldi candidates instead (multiply for
    inf, Gram solve for 0, shifted solve otherwise) and, in either mode,
    keeps every column and cleans each candidate against all of them.

    Shifted solves go through ``solve_shifted_gram`` (see ``ShiftedGram``),
    except in a dense step that stores no columns and whose pole repeats the
    previous one: y0 comes from ``factor_solve`` and is checked once q_{j+1}
    exists. A pole with no solver yet first drops the operator's solvers no
    remaining pole uses. If a solver is still live then, a pole recurs (a
    cyclic sequence), and on a dense operator the engine takes
    ``op.share_gram_eigh()``: every shift solves with one eigendecomposition of
    A^T A instead of one LU each. A run of distinct poles, or of one repeated
    pole, keeps one LU at a time. In full mode on a matrix-free operator the
    engine owns a ``KrylovBasis`` from q_1, which every shifted solve projects
    onto.
    """

    def __init__(self, op, b, poles, orthogonalize="full"):
        if orthogonalize not in ("full", "short"):
            raise ArgumentError("orthogonalize must be 'full' or 'short'")
        self.q, _ = start_vector(b)
        self.op = op
        # held here, found by the solves through op; rgk_run keeps O(1) vectors
        self.basis = (KrylovBasis(op, self.q) if op.dense is None and orthogonalize == "full"
                      else None)
        op.krylov_basis = self.basis and weakref.ref(self.basis)
        self.poles = require_poles(poles)
        self.arnoldi = self.poles.has_zero
        self.breakdown = False

        self.q_prev = np.zeros_like(self.q)
        self.Mq_prev = np.zeros_like(self.q)
        self.b_prev = 0.0          # b_{j-1} of the three-term step
        self.d_cur = 0.0           # delta_j for the current q_j
        self.d_prev = 0.0          # delta_{j-1}
        self.count = 1             # basis vectors produced so far
        self._Aq = None            # A q_j, formed at most once
        self._Mq = None            # M q_j = A^T (A q_j), when a check formed it

        # every column, cleaned against, in full mode and on zero-pole sequences
        self.columns = None
        if orthogonalize == "full" or self.arnoldi:
            self.columns = Rows()
            self.columns.append(self.q)

    def apply_q(self):
        """A q_j for the current q_j; the P side and M q_j = A^T (A q_j) share it."""
        if self._Aq is None:
            self._Aq = self.op.apply(self.q)
        return self._Aq

    def _raw_candidate(self, xi, rtol):
        """Rational Arnoldi candidate for the next direction."""
        if xi == 0.0:
            return solve_shifted_gram(self.op, 0.0, self.q, rtol)
        Mq = self.op.applyt(self.apply_q())
        return Mq if xi == math.inf else solve_shifted_gram(self.op, xi, -xi * Mq, rtol)

    def advance(self, rtol=GRAM_SOLVE_RTOL):
        """Next basis vector, its shifted solves checked at ``rtol``; None at invariance."""
        if self.breakdown:
            return None
        j = self.count
        if j - 1 >= len(self.poles):
            raise ArgumentError(
                f"pole sequence exhausted: {len(self.poles)} poles support at most "
                f"{len(self.poles) + 1} basis vectors")
        xi = self.poles[j - 1]
        if xi != math.inf and xi not in self.op.shifted_grams:
            for shift in set(self.op.shifted_grams) - set(self.poles[j - 1:]):
                self.op.shifted_grams.pop(shift, None)
            if self.op.dense is not None and self.op.shifted_grams:
                self.op.share_gram_eigh()
        d_new = 0.0 if xi in (math.inf, 0.0) else 1.0 / xi
        # a repeated pole makes -xi t1 = -(M - xi I) q_j: y1 = -q_j
        repeat = d_new != 0.0 and d_new == self.d_cur
        deferred = repeat and self.columns is None and self.op.dense is not None

        if self.arnoldi:
            w = self._raw_candidate(xi, rtol)
            scale = np.linalg.norm(w)
        else:
            Mq = self.op.applyt(self.apply_q()) if self._Mq is None else self._Mq
            t0 = Mq + (self.d_prev * self.b_prev) * self.Mq_prev \
                - self.b_prev * self.q_prev
            t1 = self.d_cur * Mq - self.q
            if d_new == 0.0:
                y0, y1 = t0, t1
            else:
                rhs = -xi * t0
                y0 = (ShiftedGram.of(self.op, xi).factor_solve(rhs) if deferred
                      else solve_shifted_gram(self.op, xi, rhs, rtol))
                y1 = -self.q if repeat else solve_shifted_gram(self.op, xi, -xi * t1, rtol)
            denom = self.q @ y1
            if abs(denom) <= np.finfo(float).tiny:
                self.breakdown = True
                return None
            a_j = -(self.q @ y0) / denom
            w = y0 + a_j * y1
            scale = max(np.linalg.norm(w), np.linalg.norm(y0))
            self.Mq_prev = Mq
        if self.columns is not None:
            w = cgs2(self.columns.filled.T, w)[0]
        q_new, b_new = normalize(w, scale)
        Aq_new = Mq_new = None
        if deferred:
            # M y0 = b_j M q_{j+1} + a_j M q_j, from the products of q_{j+1} that
            # the P side and the next step use (none at breakdown)
            My0 = a_j * Mq
            if b_new:
                Aq_new = self.op.apply(q_new)
                Mq_new = self.op.applyt(Aq_new)
                My0 = b_new * Mq_new + My0
            ShiftedGram.of(self.op, xi).require(My0 - xi * y0 - rhs, rhs, rtol)
        if b_new == 0.0:
            self.breakdown = True
            return None

        self.b_prev = b_new
        self.d_prev, self.d_cur = self.d_cur, d_new
        self.q_prev, self.q = self.q, q_new
        self._Aq, self._Mq = Aq_new, Mq_new
        self.count += 1
        if self.columns is not None:
            self.columns.append(q_new)
        return q_new


def rational_gmf_approximate(f, op, b, poles, k_max, reference=None):
    """Approximations y_k = ||b|| P_k f◇(B_k) e_1 from the rational subspace.

    On a matrix-free operator the ``ShiftedGram`` solves of step k are
    relaxed (Simoncini & Szyld 2003; van den Eshof & Sleijpen 2004) to the
    residual tolerance tau_k = min(1e-5, GRAM_SOLVE_RTOL ||z|| / |z_last|),
    z = f◇(B_{k-1}) e_1. y_k depends only on span(Q_k), so an inexact solve
    perturbs only the next direction, which every later y_k weights by about
    |z_last| / ||z||: a residual of tau_k ||v|| adds at most about
    kappa GRAM_SOLVE_RTOL to their relative error, kappa = (sigma_max^2 - xi)
    / (sigma_min^2 - xi). tau_k also bounds how far the engine's shared
    ``KrylovBasis`` grows for a solve. Dense payloads and ``rgk_run`` keep
    GRAM_SOLVE_RTOL.
    """
    k_max = require_inputs(op, b, k_max, reference)
    eng = GramLanczos(op, b, require_poles(poles, k_max), orthogonalize="full")

    def step(P, z):
        rtol = GRAM_SOLVE_RTOL
        if z is not None and z[-1] and op.dense is None:
            rtol = min(1e-5, GRAM_SOLVE_RTOL * np.linalg.norm(z / z[-1]))
        q = eng.q if P.shape[1] == 0 else eng.advance(rtol)
        if q is None:
            return None
        Aq = eng.apply_q()
        w, coeffs = cgs2(P, Aq)
        p, d = normalize(w, np.linalg.norm(Aq))
        return p, np.append(coeffs, d)

    return approximation_loop(f, b, op.rows, k_max, step, reference)
