"""Pole sequences for the rational Krylov subspace on the Gram side.

Poles live in R ∪ {0, inf} and refer to the spectrum of A^T A, so interval
checks are against squared singular values. math.inf denotes a pole at
infinity (a plain multiplication step); 0.0 denotes a pure Gram solve.
"""

import math
from dataclasses import dataclass

from .errors import ArgumentError
from .krylov import require_count, require_number

INF = math.inf


@dataclass(frozen=True)
class PoleSequence:
    """Ordered poles driving the rational subspace denominator."""

    poles: tuple

    def __post_init__(self):
        try:
            poles = None if isinstance(self.poles, (str, bytes)) else tuple(
                require_number("pole", xi) for xi in self.poles)
        except (TypeError, ArgumentError):
            poles = None
        if poles is None:
            raise ArgumentError(f"poles must be a sequence of numbers, not {self.poles!r}")
        # -inf and inf are one point, the pole at infinity: 1/xi = 0 for both
        poles = tuple(INF if xi == -INF else xi for xi in poles)
        if any(math.isnan(xi) for xi in poles):
            raise ArgumentError("NaN pole")
        object.__setattr__(self, "poles", poles)

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
        lo, hi = (sigma ** 2 for sigma in require_interval(sigma_min, sigma_max))
        for xi in self.poles:
            if math.isfinite(xi) and xi != 0.0 and lo <= xi <= hi:
                raise ArgumentError(
                    f"pole {xi} lies inside the declared squared singular "
                    f"interval [{lo:g}, {hi:g}]")
        return self


def require_poles(poles, k=1):
    """The poles as a PoleSequence, checked to support k basis vectors (k-1 poles)."""
    if not isinstance(poles, PoleSequence):
        poles = PoleSequence(poles)
    if require_count("k", k) - 1 > len(poles):
        raise ArgumentError(
            f"{len(poles)} poles support at most {len(poles) + 1} basis vectors")
    return poles


def polynomial_poles(k):
    """k poles at infinity (the polynomial Krylov subspace)."""
    return PoleSequence((INF,) * require_count("k", k))


def extended_poles(k):
    """Alternating (inf, 0, inf, 0, ...) of length k."""
    return PoleSequence(tuple(INF if i % 2 == 0 else 0.0 for i in range(require_count("k", k))))


def require_interval(sigma_min, sigma_max):
    """(sigma_min, sigma_max) as floats, once both are numbers with
    0 < sigma_min <= sigma_max < inf."""
    s, S = require_number("sigma_min", sigma_min), require_number("sigma_max", sigma_max)
    if not 0 < s <= S < math.inf:
        raise ArgumentError(f"need 0 < sigma_min <= sigma_max < inf, got [{s}, {S}]")
    return s, S


def si_optimal_pole(sigma_min, sigma_max, k):
    """k copies of the Shift-and-Invert pole xi = -sigma_min * sigma_max."""
    sigma_min, sigma_max = require_interval(sigma_min, sigma_max)
    xi = -sigma_min * sigma_max
    return PoleSequence((xi,) * require_count("k", k))


def load_user_poles(path, sigma_min=None, sigma_max=None):
    """One pole per line, as ``float`` reads it ("inf", "0", a decimal); blank
    lines ignored. A "-inf" line is the pole at infinity, as "inf" is."""
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
            try:
                poles.append(float(tok))
            except ValueError:
                raise ArgumentError(f"{path}:{lineno}: cannot parse pole {tok!r}") from None
    if not poles:
        raise ArgumentError(f"{path}: empty pole file")
    seq = PoleSequence(tuple(poles))
    if sigma_min is not None and sigma_max is not None:
        seq.validate_interval(sigma_min, sigma_max)
    return seq
