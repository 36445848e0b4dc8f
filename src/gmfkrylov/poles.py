"""Pole sequences for the rational Krylov subspace on the Gram side.

Poles live in R ∪ {0, inf} and refer to the spectrum of A^T A, so interval
checks are against squared singular values. math.inf denotes a pole at
infinity (a plain multiplication step); 0.0 denotes a pure Gram solve.
"""

import math
from dataclasses import dataclass

from .errors import ArgumentError

INF = math.inf


@dataclass(frozen=True)
class PoleSequence:
    """Ordered poles driving the rational subspace denominator."""

    poles: tuple
    kind: str = "user_file"

    def __post_init__(self):
        poles = tuple(float(x) for x in self.poles)
        # -inf and inf are one point, the pole at infinity: 1/xi = 0 for both
        object.__setattr__(self, "poles", tuple(INF if xi == -INF else xi for xi in poles))
        for xi in self.poles:
            if math.isnan(xi):
                raise ArgumentError("NaN pole")

    def __len__(self):
        return len(self.poles)

    def __getitem__(self, i):
        return self.poles[i]

    def __iter__(self):
        return iter(self.poles)

    @property
    def has_zero(self):
        return any(xi == 0.0 for xi in self.poles)

    def validate_interval(self, sigma_min, sigma_max):
        """Reject finite poles inside [sigma_min^2, sigma_max^2]."""
        lo, hi = float(sigma_min) ** 2, float(sigma_max) ** 2
        for xi in self.poles:
            if math.isfinite(xi) and xi != 0.0 and lo <= xi <= hi:
                raise ArgumentError(
                    f"pole {xi} lies inside the declared squared singular "
                    f"interval [{lo:g}, {hi:g}]")
        return self


def require_poles(poles, k=1):
    """The poles as a PoleSequence, checked to support k basis vectors (k-1 poles)."""
    if poles is None:
        raise ArgumentError("a pole sequence is required")
    if not isinstance(poles, PoleSequence):
        try:
            poles = PoleSequence(tuple(poles))
        except (TypeError, ValueError) as exc:
            raise ArgumentError(f"poles must be a sequence of numbers: {exc}") from None
    if int(k) - 1 > len(poles):
        raise ArgumentError(
            f"{len(poles)} poles support at most {len(poles) + 1} basis vectors")
    return poles


def polynomial_poles(k):
    """k poles at infinity (the polynomial Krylov subspace)."""
    if int(k) < 1:
        raise ArgumentError("k must be >= 1")
    return PoleSequence((INF,) * int(k), kind="polynomial")


def extended_poles(k):
    """Alternating (inf, 0, inf, 0, ...) of length k."""
    if int(k) < 1:
        raise ArgumentError("k must be >= 1")
    return PoleSequence(tuple(INF if i % 2 == 0 else 0.0 for i in range(int(k))),
                        kind="extended")


def si_optimal_pole(sigma_min, sigma_max, k):
    """k copies of the Shift-and-Invert pole xi = -sigma_min * sigma_max."""
    sigma_min, sigma_max = float(sigma_min), float(sigma_max)
    if not (0 < sigma_min <= sigma_max):
        raise ArgumentError("need 0 < sigma_min <= sigma_max")
    xi = -sigma_min * sigma_max
    return PoleSequence((xi,) * int(k), kind="shift_invert")


def load_user_poles(path, sigma_min=None, sigma_max=None):
    """One pole per line: "inf", "0", or a decimal; blank lines ignored. A "-inf"
    line is the pole at infinity, as "inf" is."""
    poles = []
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ArgumentError(f"{path}: not ASCII text ({exc.reason})") from None
        for lineno, line in enumerate(lines, 1):
            tok = line.strip()
            if not tok:
                continue
            if tok.lower() in ("inf", "+inf", "infinity"):
                poles.append(INF)
            else:
                try:
                    poles.append(float(tok))
                except ValueError:
                    raise ArgumentError(
                        f"{path}:{lineno}: cannot parse pole {tok!r}") from None
    if not poles:
        raise ArgumentError(f"{path}: empty pole file")
    seq = PoleSequence(tuple(poles), kind="user_file")
    if sigma_min is not None and sigma_max is not None:
        seq.validate_interval(sigma_min, sigma_max)
    return seq
