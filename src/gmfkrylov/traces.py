"""Per-iteration convergence records shared by the methods and the harness."""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ArgumentError


@dataclass(eq=False)
class ConvergenceTrace:
    """Iteration indices with relative errors and optional diagnostics.

    ``gram`` is P^T P for a basis that is not kept orthonormal, else None.
    ``orthogonality_drift`` lists ||D_k - P_k^T P_k||_2 for every k, with D_k
    the identity on the nonzero columns of P_k (a column the engine kept with
    p_k = 0 at invariance is not a drift), one SVD per k taken on the first
    read and kept, so a caller who never reads it pays nothing. Equality
    compares ks, errors and the drift.
    """

    ks: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    gram: np.ndarray = field(default=None, repr=False)

    def record(self, k, error=None):
        if self.ks and k <= self.ks[-1]:
            raise ArgumentError("iteration indices must be strictly increasing")
        self.ks.append(int(k))
        if error is not None:
            if error < 0:
                raise ArgumentError("errors must be nonnegative")
            self.errors.append(float(error))

    @cached_property
    def orthogonality_drift(self):
        G = self.gram
        return [] if G is None else [
            float(np.linalg.norm(np.diag(np.diag(G[:k, :k]) != 0) - G[:k, :k], 2))
            for k in range(1, len(G) + 1)]

    def __eq__(self, other):
        return isinstance(other, ConvergenceTrace) and (
            (self.ks, self.errors, self.orthogonality_drift)
            == (other.ks, other.errors, other.orthogonality_drift))

    def pairs(self, which="errors"):
        values = getattr(self, which if which != "drift" else "orthogonality_drift")
        return list(zip(self.ks, values))


def relative_error(y, y_ref):
    y_ref = np.asarray(y_ref, dtype=float)
    scale = np.linalg.norm(y_ref)
    return float(np.linalg.norm(np.asarray(y) - y_ref) / (scale if scale > 0 else 1.0))


def emit_dat(pairs, path):
    """Write "k value" lines (LF endings, 16 significant digits)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for k, value in pairs:
            fh.write(f"{k} {value:.15e}\n")


def read_dat(path):
    pairs = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if not line.strip():
                continue
            k, value = line.split()
            pairs.append((int(k), float(value)))
    return pairs
