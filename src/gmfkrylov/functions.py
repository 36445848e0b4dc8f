"""Scalar functions on (0, inf) with the metadata the projection methods need.

Only positive arguments are ever evaluated; each function is implicitly
treated as its odd extension. ``small_at_zero`` records whether f(z) vanishes
faster than sqrt(z) at 0, which is when the companion g(z) = f(sqrt z)/sqrt z
may be extended by g(0) = 0. A builtin is one numpy formula, which on complex
input is also the analytic continuation to the right half-plane, so that the
half-plane bound constants can be sampled; a function without a complex
evaluator has no such constants.
"""

import re

import numpy as np

from .errors import ArgumentError, EvaluationError
from .krylov import require_count


class ScalarFunction:
    """Vectorized scalar function f with optional analytic continuation."""

    def __init__(self, name, evaluate, small_at_zero=False, complex_evaluate=None):
        self.name = name
        self._evaluate = evaluate
        self.small_at_zero = bool(small_at_zero)
        self._complex_evaluate = complex_evaluate

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        if np.any(z < 0):
            raise EvaluationError(f"{self.name}: negative argument")
        # an overflow or a pole shows as a non-finite value, reported below
        with np.errstate(all="ignore"):
            out = np.asarray(self._evaluate(z), dtype=float)
        if not np.all(np.isfinite(out[z > 0])):
            raise EvaluationError(f"{self.name}: non-finite value on positive input")
        return out

    @property
    def has_complex(self):
        return self._complex_evaluate is not None

    def complex_eval(self, s):
        """Analytic continuation f2(s) on the right half-plane."""
        if self._complex_evaluate is None:
            raise EvaluationError(f"{self.name}: no complex evaluator available")
        return np.asarray(self._complex_evaluate(np.asarray(s, dtype=complex)),
                          dtype=complex)

    def __repr__(self):
        return f"ScalarFunction({self.name!r})"


def companion_g(f):
    """g(z) = f(sqrt z)/sqrt z, defined on (0, inf).

    When ``f.small_at_zero`` holds, g(0) is set to 0 (the generalized matrix
    function only ever sees nonzero singular values, so this extension is
    harmless); otherwise evaluating g at 0 is an error.
    """

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        pos = z > 0
        root = np.sqrt(z[pos])
        out[pos] = f(root) / root
        if np.any(~pos):
            if not f.small_at_zero:
                raise EvaluationError(
                    f"g[{f.name}] undefined at 0 (f is not o(sqrt z) there)")
            out[~pos] = 0.0
        return out

    return ScalarFunction(f"g[{f.name}]", evaluate)


def odd_monomial(ell):
    """f(z) = z^(2*ell - 1)."""
    p = 2 * require_count("ell", ell) - 1

    def power(z):
        return z ** p

    return ScalarFunction(f"z^{p}", power, True, power)


# name: (numpy formula, small_at_zero); ``builtin`` uses the formula on real
# input and, on complex input, as the continuation to the right half-plane
_BUILTINS = {
    "identity": (lambda z: z, True),
    "sqrt": (np.sqrt, False),
    "inv_quarter": (lambda z: z ** -0.25, False),
    "sqrt_log": (lambda z: np.sqrt(z) * np.log(z), False),
    "sinh": (np.sinh, True),
    "sin": (np.sin, True),
    "z_log_z": (lambda z: z * np.log(z), True),
    "sqrt_log1p_sqrt": (lambda z: np.sqrt(z) * np.log1p(np.sqrt(z)), True),
}

_MONOMIAL = re.compile(r"^z\^(\d+)$")


def builtin(name):
    """Look up a builtin by name; "z^3", "z^5", ... select odd monomials."""
    if name in _BUILTINS:
        formula, small_at_zero = _BUILTINS[name]
        return ScalarFunction(name, formula, small_at_zero, formula)
    m = _MONOMIAL.match(name)
    if m:
        p = int(m.group(1))
        if p % 2 == 0:
            raise ArgumentError(f"monomial {name!r} must have odd degree")
        return odd_monomial((p + 1) // 2)
    raise ArgumentError(
        f"unknown function {name!r}; choices: {sorted(_BUILTINS)} or z^<odd>")
