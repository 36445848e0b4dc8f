"""Per-iteration convergence records shared by the methods and the harness."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError


@dataclass
class ConvergenceTrace:
    """Iteration indices with relative errors and optional diagnostics."""

    ks: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    orthogonality_drift: list = field(default_factory=list)

    def record(self, k, error=None, drift=None):
        if self.ks and k <= self.ks[-1]:
            raise ArgumentError("iteration indices must be strictly increasing")
        self.ks.append(int(k))
        if error is not None:
            if error < 0:
                raise ArgumentError("errors must be nonnegative")
            self.errors.append(float(error))
        if drift is not None:
            self.orthogonality_drift.append(float(drift))

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
