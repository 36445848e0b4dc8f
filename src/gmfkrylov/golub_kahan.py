"""Classical Golub-Kahan bidiagonalization and its projection approximation.

The two coupled recurrences
    r_k = A q_k - beta_{k-1} p_{k-1},   alpha_k = ||r_k||,  p_k = r_k/alpha_k,
    s_k = A^T p_k - alpha_k q_k,        beta_k  = ||s_k||,  q_{k+1} = s_k/beta_k,
build orthonormal P_k, Q_k with P_k^T A Q_k upper bidiagonal (alpha on the
diagonal, beta above it), with alpha_k, beta_k >= 0; ``krylov.normalize``
sets a vanished one to zero, which marks the invariance index.
``gk_step`` is the textbook step (with optional CGS2 reorthogonalization
against the stored bases); ``gk_approximate`` hands p_k and the bidiagonal
column (beta_{k-1}, alpha_k) to the shared approximation loop.
"""

from dataclasses import dataclass, field

import numpy as np

from .krylov import (Rows, approximation_loop, cgs2, normalize, require_inputs,
                     start_vector)


@dataclass
class BidiagonalState:
    """State of the bidiagonalization after k completed steps."""

    alpha: list = field(default_factory=list)
    beta: list = field(default_factory=list)
    p: np.ndarray = None          # p_k
    q: np.ndarray = None          # q_{k+1}, the next start vector
    p_rows: Rows = field(default_factory=Rows)     # stored bases, one vector per row
    q_rows: Rows = field(default_factory=Rows)
    breakdown: bool = False

    @property
    def k(self):
        return len(self.alpha)

    @property
    def P(self):
        """p_1..p_k as the rows of a view."""
        return self.p_rows.filled

    @property
    def Q(self):
        """q_1..q_{k+1} as the rows of a view."""
        return self.q_rows.filled

    def bidiagonal(self, k=None):
        """Dense upper-bidiagonal B_k."""
        k = self.k if k is None else k
        return np.diag(self.alpha[:k]) + np.diag(self.beta[:max(k - 1, 0)], 1)


def gk_init(b):
    state = BidiagonalState()
    state.q, _ = start_vector(b)
    state.q_rows.append(state.q)
    return state


def gk_step(state, op, reorth=False):
    """Advance the bidiagonalization by one step (mutates and returns state).

    ``krylov.normalize`` tests alpha against ||A q_k|| and beta against
    ||A^T p_k||. A vanished alpha gives p_k = 0 and alpha_k = 0, so beta
    vanishes too: the state is flagged ``breakdown`` (the invariance index).
    """
    if state.breakdown:
        return state

    r = Aq = op.apply(state.q)
    if state.p is not None:
        r = r - state.beta[-1] * state.p
    if reorth and state.k:
        r, _ = cgs2(state.P.T, r)
    state.p, alpha = normalize(r, np.linalg.norm(Aq))
    state.alpha.append(alpha)
    state.p_rows.append(state.p)

    Atp = op.applyt(state.p)
    s = Atp - alpha * state.q
    if reorth:
        s, _ = cgs2(state.Q.T, s)
    q, beta = normalize(s, np.linalg.norm(Atp))
    state.breakdown = beta == 0.0
    if not state.breakdown:
        state.beta.append(beta)
        state.q = q
        state.q_rows.append(q)
    return state


def gk_approximate(f, op, b, k_max, reorth=True, reference=None):
    """Approximations y_k = ||b|| P_k f◇(B_k) e_1 for k = 1..k_max.

    Stops early at breakdown (the Krylov space became invariant). Both bases
    are reorthogonalized by default: without it orthogonality is lost and the
    run goes on past invariance. When a reference vector is supplied the trace
    records relative 2-norm errors.
    """
    k_max = require_inputs(op, b, k_max, reference)
    state = gk_init(b)

    def step(P, _z):
        k = P.shape[1] + 1
        if state.breakdown or gk_step(state, op, reorth=reorth).k < k:
            return None
        column = np.zeros(k)
        column[-1] = state.alpha[-1]
        if k > 1:
            column[-2] = state.beta[k - 2]
        return state.p, column

    return approximation_loop(f, b, op.rows, k_max, step, reference)
