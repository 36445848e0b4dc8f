"""A-priori error bounds for the polynomial and rational projection methods.

Three families are evaluated:

* a half-plane-analyticity bound for the polynomial method, geometric with
  ratio 1/rho for any 1 < rho <= (b + a)/(b - a), with a constant sampled on
  the Bernstein-type ellipse with foci a^2, b^2;
* a quasi-optimal rational bound obtained by discrete least-squares
  approximation of f by q_{k-1}(z^2)^{-1} p(z) on a symmetric grid;
* the Shift-and-Invert bound 2 M rho^k / (1 - rho) with the two-branch rho,
  which at the pole xi = -sigma_min sigma_max collapses to the closed form
  2 ||b|| M sqrt(sigma_max/sigma_min) exp(-2 k sqrt(sigma_min/sigma_max)).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .functions import companion_g
from .krylov import cgs2, normalize, require_count, require_number
from .poles import require_interval, require_poles

ELLIPSE_SAMPLES = 4096
RATIONAL_GRID = 2000
RHO_GRID_SIZE = 40
H_SUP_SAMPLES = 4001


def _ellipse_points(rho, a, b):
    """ELLIPSE_SAMPLES points of the ellipse with foci a^2, b^2 (the image of
    E_rho) for each rho, along the last axis."""
    theta = np.linspace(0.0, 2.0 * np.pi, ELLIPSE_SAMPLES, endpoint=False)
    rho = np.asarray(rho, dtype=float)[..., None]
    unit = 0.5 * (rho * np.exp(1j * theta) + np.exp(-1j * theta) / rho)
    a2, b2 = a ** 2, b ** 2
    return 0.5 * (a2 + b2) + 0.5 * (b2 - a2) * unit


def _require_norm_b(norm_b):
    """||b|| as a float, once it is a finite, nonnegative real number."""
    norm_b = require_number("norm_b", norm_b)
    if not 0.0 <= norm_b < math.inf:
        raise ArgumentError(f"norm_b must be finite and nonnegative, got {norm_b}")
    return norm_b


@dataclass(frozen=True)
class BoundCurve:
    """Bound value per iteration with the constants used, for audit."""

    ks: np.ndarray
    values: np.ndarray
    constants: dict = field(default_factory=dict)

    def pairs(self):
        return list(zip(self.ks.tolist(), self.values.tolist()))


def _chui_hasson_constants(f_eval, a, b, rho):
    """Constant C = 2 (M + N/a) on the ellipse of each rho of an array, with
    M = max |f2(sqrt z)| and N = max |f2(sqrt z)/sqrt z| sampled in one pass.

    ``f_eval`` is f2, the continuation of f to the right half-plane. The odd
    extension continues to the left one as f1(s) = -f2(-s), whose moduli at
    -sqrt(z) are f2's at sqrt(z): its maxima M1, N1 equal M, N, so
    C = M1 + M + (N1 + N)/a. C is +inf where a sample diverges (e.g. at
    rho = (b+a)/(b-a), where the ellipse touches 0).
    """
    rho = np.asarray(rho, dtype=float)
    if not a < b:
        raise ArgumentError("interval collapses: need a < b")
    if not np.all(rho > 1):
        raise ArgumentError("need rho > 1")
    rho_max = (b + a) / (b - a)
    if np.any(rho > rho_max * (1 + 1e-12)):
        raise ArgumentError(f"rho must not exceed (b+a)/(b-a) = {rho_max:g}")
    root = np.sqrt(_ellipse_points(rho, a, b))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f2 = np.asarray(f_eval(root), dtype=complex)
        M, N = (np.max(np.abs(v), axis=-1) for v in (f2, f2 / root))
        C = 2.0 * (M + N / a)
    return np.where(np.isfinite(C), C, math.inf)


def polynomial_bound_curve(f, sigma_n, sigma_1, k_max, norm_b=1.0):
    """Geometric bound min over rho of 2 C ||b|| rho/(rho-1) rho^{-k}.

    The minimum is over RHO_GRID_SIZE geometrically spaced rho up to rho_max.
    When f carries no complex evaluator only the rate rho_max^{-k} is
    reported, which is how such curves are usually overlaid on convergence
    plots.
    """
    a, b = require_number("sigma_n", sigma_n), require_number("sigma_1", sigma_1)
    if not 0 < a < b < math.inf:
        raise ArgumentError("need 0 < sigma_n < sigma_1 < inf")
    norm_b = _require_norm_b(norm_b)
    rho_max = (b + a) / (b - a)
    ks = np.arange(1, require_count("k_max", k_max) + 1)
    constants = {"rho_max": rho_max}

    if not getattr(f, "has_complex", False):
        values = rho_max ** (-ks.astype(float))
        constants["constant_mode"] = "rate-only"
        return BoundCurve(ks, values, constants)

    rho_grid = np.geomspace(rho_max ** (1.0 / RHO_GRID_SIZE), rho_max, RHO_GRID_SIZE)
    # every ellipse is sampled in one pass; rho^-k stays a scalar power per
    # rho, since a broadcast power may round differently
    C = _chui_hasson_constants(f.complex_eval, a, b, rho_grid)
    pref = 2.0 * C * norm_b * rho_grid / (rho_grid - 1.0)
    values = np.min([p * rho ** (-ks.astype(float)) for p, rho in zip(pref, rho_grid)], axis=0)
    constants["constant_mode"] = "included"
    constants["rho_grid"] = rho_grid
    return BoundCurve(ks, values, constants)


def rho_of(sigma_min, sigma_max, xi):
    """Two-branch convergence ratio of the Shift-and-Invert bound."""
    return max(*rho_branches(sigma_min, sigma_max, xi))


def rho_branches(sigma_min, sigma_max, xi):
    """The two branches whose maximum is the Shift-and-Invert ratio rho."""
    (s, S), xi = require_interval(sigma_min, sigma_max), require_number("xi", xi)
    if not -math.inf < xi < 0:
        raise ArgumentError("the Shift-and-Invert pole must be finite and negative")
    rS = math.sqrt(S * S - xi)
    rs = math.sqrt(s * s - xi)
    return ((rS - rs) / (rS + rs),
            (S * rs - s * rS) / (S * rs + s * rS))


def si_style_bound(sigma_min, sigma_max, xi, M, k):
    """Approximation-theory bound 2 M rho^k / (1 - rho)."""
    M = require_number("M", M)
    if not M > 0:
        raise ArgumentError("M must be positive")
    rho = rho_of(sigma_min, sigma_max, xi)
    return 2.0 * M * rho ** require_count("k", k, least=0) / (1.0 - rho)


def si_closed_form_bound(sigma_min, sigma_max, M, k, norm_b=1.0):
    """2 ||b|| M sqrt(sigma_max/sigma_min) exp(-2 k sqrt(sigma_min/sigma_max))."""
    (s, S), M = require_interval(sigma_min, sigma_max), require_number("M", M)
    norm_b = _require_norm_b(norm_b)
    if not M > 0:
        raise ArgumentError("M must be positive")
    return (2.0 * norm_b * M * math.sqrt(S / s)
            * math.exp(-2.0 * require_count("k", k, least=0) * math.sqrt(s / S)))


def sample_h_sup(f, xi):
    """M = sup |h| on [0, 1/(-xi)] with h(t) = g(1/t + xi), g = f(sqrt z)/sqrt z."""
    xi = require_number("xi", xi)
    if not -math.inf < xi < 0:
        raise ArgumentError(f"xi must be a finite negative number, got {xi}")
    g = companion_g(f)
    ts = np.linspace(0.0, 1.0 / (-xi), H_SUP_SAMPLES)[1:]
    w = 1.0 / ts + xi
    w = np.maximum(w, 1e-300)   # endpoint t = 1/(-xi) maps to w = 0
    return float(np.max(np.abs(g(w))))


def _chebyshev_grid(lo, hi, count):
    nodes = np.cos(np.arange(count) * np.pi / (count - 1))
    return lo + (hi - lo) * (nodes + 1.0) / 2.0


def _grid_rational_basis(w, poles, k):
    """Grid-orthonormal basis of {p(w)/prod_{j<k}(w - xi_j) : deg p <= k-1}.

    Built one pole factor at a time with re-orthonormalization on the grid
    (rational Arnoldi on the diagonal matrix diag(w), cleaned by CGS2), which
    keeps every column at unit scale; a single Vandermonde-type matrix divided
    by the full denominator would span dozens of orders of magnitude and lose
    the fit entirely for repeated poles.
    """
    V = np.empty((w.size, k))
    V[:, 0] = 1.0 / math.sqrt(w.size)
    for j in range(k - 1):
        xi, v = poles[j], V[:, j]
        if xi == math.inf:
            cand = w * v
        elif xi == 0.0:
            cand = v / w
        else:
            cand = (w * v) / (w - xi)
        # the engines' breakdown test, at the unit scale of the grid columns
        q, nrm = normalize(cgs2(V[:, :j + 1], cand)[0], 1.0)
        if nrm == 0.0:
            return V[:, :j + 1]
        V[:, j + 1] = q
    return V


def quasi_optimal_rational_bound(f, poles, sigma_n, sigma_1, k, norm_b=1.0):
    """2 ||b|| sup over a symmetric grid of |f - q_{k-1}(z^2)^{-1} p(z)|.

    The minimum over p of degree <= 2k-1 is replaced by a discrete least
    squares fit on Chebyshev-distributed points over [-sigma_1, -sigma_n]
    and [sigma_n, sigma_1]. Odd symmetry reduces the fit to the odd block
    z * po(z^2)/q(z^2) on the positive half grid. The result approximates
    the best uniform deviation from above only up to the discretization.
    """
    return _rational_bound_values(f, poles, sigma_n, sigma_1, [require_count("k", k)], norm_b)[0]


def rational_bound_curve(f, poles, sigma_n, sigma_1, k_max, norm_b=1.0):
    """``quasi_optimal_rational_bound`` for k = 1..k_max, from one grid basis."""
    ks = np.arange(1, require_count("k_max", k_max) + 1)
    values = _rational_bound_values(f, poles, sigma_n, sigma_1, ks.tolist(), norm_b)
    return BoundCurve(ks, np.array(values))


def _rational_bound_values(f, poles, sigma_n, sigma_1, ks, norm_b):
    """The bound at each k of ks, fitted on the leading columns of one basis.

    Column j of the grid basis depends only on columns 0..j-1, so the leading
    k columns of the basis built for max(ks) are the basis built for k.
    """
    (a, b), norm_b = require_interval(sigma_n, sigma_1), _require_norm_b(norm_b)
    poles = require_poles(poles, max(ks))
    z = _chebyshev_grid(a, b, RATIONAL_GRID)
    basis = _grid_rational_basis(z * z, poles, max(ks))
    fz = f(z)
    values = []
    for k in ks:
        design = z[:, None] * basis[:, :k]
        coef, *_ = np.linalg.lstsq(design, fz, rcond=None)
        residual = fz - design @ coef
        values.append(2.0 * norm_b * float(np.max(np.abs(residual))))
    return values
