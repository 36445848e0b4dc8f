"""Matrix-free linear operators, shifted Gram solves and seeded test matrices.

An operator exposes ``apply`` (v -> A v) and ``applyt`` (u -> A^T u); a dense
payload is kept for desk-scale instances so that shifted systems with the
Gram matrix A^T A can be solved by a cached dense factorization.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ArgumentError, SolveFailure

GRAM_SOLVE_RTOL = 1e-10


class LinearOperator:
    """Real m-by-n linear map with an adjoint and optional dense payload."""

    def __init__(self, rows, cols, matvec, rmatvec, dense=None):
        self.rows = int(rows)
        self.cols = int(cols)
        if self.rows < 1 or self.cols < 1:
            raise ArgumentError("operator dimensions must be positive")
        self._matvec = matvec
        self._rmatvec = rmatvec
        self.dense = None if dense is None else np.asarray(dense, dtype=float)
        self._gram = None
        self._gram_factors = {}
        self._norm_est = None

    @classmethod
    def from_dense(cls, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise ArgumentError("expected a 2-d array")
        return cls(A.shape[0], A.shape[1],
                   lambda v: A @ v, lambda u: A.T @ u, dense=A)

    @classmethod
    def from_callables(cls, rows, cols, matvec, rmatvec):
        return cls(rows, cols, matvec, rmatvec)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def apply(self, v):
        """Return A v."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.cols,):
            raise ArgumentError(
                f"apply: expected vector of length {self.cols}, got shape {v.shape}")
        out = np.asarray(self._matvec(v), dtype=float)
        if out.shape != (self.rows,):
            raise ArgumentError("apply: operator returned a wrong-sized vector")
        return out

    def applyt(self, u):
        """Return A^T u."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.rows,):
            raise ArgumentError(
                f"applyt: expected vector of length {self.rows}, got shape {u.shape}")
        out = np.asarray(self._rmatvec(u), dtype=float)
        if out.shape != (self.cols,):
            raise ArgumentError("applyt: operator returned a wrong-sized vector")
        return out

    def gram_apply(self, v):
        """Return A^T A v."""
        return self.applyt(self.apply(v))

    def transpose(self):
        """View of A^T (dense payload transposed when present)."""
        dense_t = None if self.dense is None else self.dense.T
        return LinearOperator(self.cols, self.rows, self._rmatvec, self._matvec,
                              dense=dense_t)

    def norm_estimate(self):
        """2-norm of A (exact for dense payloads, power iteration otherwise)."""
        if self._norm_est is None:
            if self.dense is not None:
                self._norm_est = float(np.linalg.norm(self.dense, 2))
            else:
                rng = np.random.default_rng(0x5eed)
                v = rng.standard_normal(self.cols)
                v /= np.linalg.norm(v)
                lam = 0.0
                for _ in range(50):
                    w = self.gram_apply(v)
                    lam = np.linalg.norm(w)
                    if lam == 0.0:
                        break
                    v = w / lam
                self._norm_est = float(np.sqrt(lam))
        return self._norm_est

    def gram_matrix(self):
        """Dense A^T A (requires a dense payload)."""
        if self.dense is None:
            raise ArgumentError("gram_matrix requires a dense payload")
        if self._gram is None:
            self._gram = self.dense.T @ self.dense
        return self._gram

    def _gram_factor(self, xi):
        fac = self._gram_factors.get(xi)
        if fac is None:
            G = self.gram_matrix()
            shifted = G - xi * np.eye(self.cols)
            fac = scipy.linalg.lu_factor(shifted, check_finite=False)
            self._gram_factors[xi] = fac
        return fac


def solve_shifted_gram(op, xi, v, rtol=GRAM_SOLVE_RTOL):
    """Solve (A^T A - xi I) x = v with a residual check on every return.

    Dense payloads use a cached LU factorization of the shifted Gram matrix;
    matrix-free operators use CG for xi <= 0 and MINRES for xi > 0. Each return
    costs one Gram product for its residual check; a residual above
    ``rtol * ||v||`` raises :class:`SolveFailure` (the shift is singular or
    too close to the spectrum of A^T A, or the iteration did not converge).
    """
    xi = float(xi)
    v = np.asarray(v, dtype=float)
    if v.shape != (op.cols,):
        raise ArgumentError(f"expected vector of length {op.cols}")
    if not np.all(np.isfinite(v)):
        raise ArgumentError("right-hand side contains non-finite entries")
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return np.zeros(op.cols)

    if op.dense is not None:
        x = scipy.linalg.lu_solve(op._gram_factor(xi), v, check_finite=False)
        r = op.gram_apply(x) - xi * x - v
    else:
        def shifted_mv(y):
            return op.gram_apply(y) - xi * y

        lin = scipy.sparse.linalg.LinearOperator(
            (op.cols, op.cols), matvec=shifted_mv)
        solver = scipy.sparse.linalg.cg if xi <= 0 else scipy.sparse.linalg.minres
        x = np.zeros(op.cols)
        r = v
        # iterative refinement against the true residual
        for _ in range(4):
            dx, _ = solver(lin, r, rtol=1e-13, atol=0.0, maxiter=20 * op.cols)
            x = x + dx
            r = v - shifted_mv(x)
            if np.linalg.norm(r) <= 0.1 * rtol * nv:
                break

    residual = np.linalg.norm(r)
    if not residual <= rtol * nv:
        raise SolveFailure(
            f"shifted Gram solve residual {residual:.3e} exceeds "
            f"{rtol:.1e}*||v||; xi={xi} may be too close to the spectrum of A^T A")
    return x


@dataclass(frozen=True)
class SingularProfile:
    """Prescribed singular values, stored in descending order."""

    values: np.ndarray
    kind: str = "explicit-list"
    lo: float = field(default=np.nan)
    hi: float = field(default=np.nan)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ArgumentError("profile needs at least one value")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ArgumentError("singular values must be finite and nonnegative")
        if np.any(np.diff(vals) > 0):
            raise ArgumentError("singular values must be descending")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.size

    @property
    def sigma_max(self):
        return float(self.values[0])

    @property
    def sigma_min(self):
        return float(self.values[-1])


def singular_profile(kind, count, lo, hi):
    """Build a descending profile on [lo, hi].

    ``chebyshev2`` maps cos(j*pi/(count-1)) affinely onto [lo, hi];
    ``logspace`` is geometric (requires lo > 0).
    """
    count = int(count)
    if count < 1:
        raise ArgumentError("count must be >= 1")
    lo, hi = float(lo), float(hi)
    if not (0 <= lo <= hi) or not np.isfinite(hi):
        raise ArgumentError(f"invalid interval [{lo}, {hi}]")
    if kind == "chebyshev2":
        if count == 1:
            vals = np.array([hi])
        else:
            nodes = np.cos(np.arange(count) * np.pi / (count - 1))
            vals = lo + (hi - lo) * (nodes + 1.0) / 2.0
    elif kind == "logspace":
        if lo <= 0:
            raise ArgumentError("logspace requires lo > 0")
        vals = np.geomspace(hi, lo, count)
    else:
        raise ArgumentError(f"unknown profile kind {kind!r}")
    # clamp roundoff so values stay inside [lo, hi] and strictly descending order holds
    vals = np.clip(vals, lo, hi)
    return SingularProfile(vals, kind=kind, lo=lo, hi=hi)


def _haar_from_rng(n, rng):
    B = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(B)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def _as_seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def haar_orthogonal(n, seed):
    """Haar-distributed n-by-n orthogonal matrix, deterministic per seed.

    QR of a standard-normal matrix with the sign fix that makes diag(R)
    nonnegative.
    """
    n = int(n)
    if n < 1:
        raise ArgumentError("n must be >= 1")
    rng = np.random.default_rng(_as_seed_sequence(seed))
    return _haar_from_rng(n, rng)


def synthesize_test_matrix(m, n, profile, seed):
    """Dense A = U diag(profile) V^T with independent Haar factors U, V."""
    m, n = int(m), int(n)
    if len(profile) != min(m, n):
        raise ArgumentError(
            f"profile length {len(profile)} != min(m, n) = {min(m, n)}")
    kid_u, kid_v = _as_seed_sequence(seed).spawn(2)
    U = _haar_from_rng(m, np.random.default_rng(kid_u))
    V = _haar_from_rng(n, np.random.default_rng(kid_v))
    r = min(m, n)
    A = (U[:, :r] * profile.values) @ V[:, :r].T
    return LinearOperator.from_dense(A)


def load_dense_matrix(path):
    """Read the text matrix format: first line "m n", then m rows of n decimals."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ArgumentError(f"{path}: first line must be 'm n'")
        m, n = int(header[0]), int(header[1])
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (m, n):
        raise ArgumentError(
            f"{path}: header promises {m}x{n}, file holds {data.shape[0]}x{data.shape[1]}")
    if not np.all(np.isfinite(data)):
        raise ArgumentError(f"{path}: matrix holds non-finite entries")
    return LinearOperator.from_dense(data)


def save_dense_matrix(path, A):
    A = np.asarray(A, dtype=float)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        for row in A:
            fh.write(" ".join(f"{x:.17e}" for x in row) + "\n")


def adjointness_defect(op, seed=0, samples=5):
    """max |u^T(Av) - (A^T u)^T v| / (||u|| ||v|| ||A||_est) over random probes."""
    rng = np.random.default_rng(seed)
    scale = max(op.norm_estimate(), np.finfo(float).tiny)
    worst = 0.0
    for _ in range(samples):
        u = rng.standard_normal(op.rows)
        v = rng.standard_normal(op.cols)
        lhs = u @ op.apply(v)
        rhs = op.applyt(u) @ v
        worst = max(worst, abs(lhs - rhs) /
                    (np.linalg.norm(u) * np.linalg.norm(v) * scale))
    return worst
