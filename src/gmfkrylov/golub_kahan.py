"""Classical Golub-Kahan bidiagonalization, the rational method with every pole at infinity.

The two coupled recurrences
    r_k = A q_k - beta_{k-1} p_{k-1},   alpha_k = ||r_k||,  p_k = r_k/alpha_k,
    s_k = A^T p_k - alpha_k q_k,        beta_k  = ||s_k||,  q_{k+1} = s_k/beta_k,
build orthonormal P_k, Q_k with P_k^T A Q_k upper bidiagonal (alpha on the
diagonal, beta above it), with alpha_k, beta_k >= 0; ``krylov.normalize``
sets a vanished one to zero, which marks the invariance index.
``gk_step`` is that textbook step, the reference the engines are tested
against. With every pole at infinity the rational Krylov space of (A^T A, b)
is the polynomial one, so ``gk_approximate``, the library's Golub-Kahan entry,
runs the rational engines. Config files do not reach it: they write
Golub-Kahan as either engine with ``{"kind": "polynomial"}`` poles.
"""

from dataclasses import dataclass, field

import numpy as np

from .krylov import Rows, normalize, require_inputs, start_vector
from .poles import polynomial_poles
from .rectangular import ENGINES


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


def gk_step(state, op):
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
    state.p, alpha = normalize(r, np.linalg.norm(Aq))
    state.alpha.append(alpha)
    state.p_rows.append(state.p)

    Atp = op.applyt(state.p)
    s = Atp - alpha * state.q
    q, beta = normalize(s, np.linalg.norm(Atp))
    state.breakdown = beta == 0.0
    if not state.breakdown:
        state.beta.append(beta)
        state.q = q
        state.q_rows.append(q)
    return state


def gk_approximate(f, op, b, k_max, reorth=True, reference=None):
    """Approximations y_k = ||b|| P_k f◇(B_k) e_1 for k = 1..k_max, with their trace.

    The rational engines with every pole at infinity: the fully orthogonalized
    ``rational_gmf_approximate`` with ``reorth`` (the default), else the short
    recurrence ``rgk_run``, whose trace also holds the drift of P_k. Both stop
    early at breakdown (the Krylov space became invariant). Without ``reorth``
    the run shares the short recurrence's known invariance failure: on a
    rank-deficient A it can step past the invariance index and end far from
    the exact answer (the strict xfail ``test_rgk_run_rank_deficient_square``).
    """
    poles = polynomial_poles(require_inputs(op, b, k_max, reference))
    engine = ENGINES["rational_full" if reorth else "rational_short"]
    return engine(f, op, b, poles, k_max, reference=reference)
