"""Matrix-free linear operators, shifted Gram solves and seeded test matrices.

An operator exposes ``apply`` (v -> A v), ``applyt`` (u -> A^T u) and, at
desk scale, a dense payload, which ``ShiftedGram`` factors: by LU per shift,
or by one eigendecomposition of A^T A that every shift shares once a caller
takes it (``LinearOperator.share_gram_eigh``).
"""

import contextlib
import ctypes
import functools
import importlib
import numbers
import threading
import time
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ArgumentError, SolveFailure
from .krylov import Rows, normalize, require_count, require_number

GRAM_SOLVE_RTOL = 1e-10

# the extensions through whose handles each library's OpenBLAS is found
_BLAS_EXTENSIONS = {"numpy": "numpy.linalg._umath_linalg",
                    "scipy": "scipy.linalg._flapack"}
# id of a pool's set function -> [blocks inside one_blas_thread, count to restore]
_PINS = {}
_PINS_LOCK = threading.Lock()


class LinearOperator:
    """Real m-by-n linear map with an adjoint and optional dense payload.

    ``factors`` is ``(U_r, sigma, V_r)`` with A = U_r diag(sigma) V_r^T when
    the operator was synthesized from them, else None.
    """

    def __init__(self, rows, cols, matvec, rmatvec, dense=None):
        self.rows = require_count("rows", rows)
        self.cols = require_count("cols", cols)
        self._matvec = matvec
        self._rmatvec = rmatvec
        self.dense = None if dense is None else np.asarray(dense, dtype=float)
        self._gram = None
        self.shifted_grams = {}    # xi -> ShiftedGram, see ShiftedGram.of
        self.gram_eigh = None      # (lambda, V) of A^T A, see share_gram_eigh
        self._gram_eigh_lock = threading.Lock()
        self._norm_est = None
        self.factors = None

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

    def share_gram_eigh(self):
        """Take, once, A^T A = V diag(lambda) V^T (requires a dense payload),
        with which every ``ShiftedGram`` of the operator solves from then on.
        Their LUs are released first, so that none is alive beside the
        eigendecomposition's n-by-n blocks. Concurrent callers build it once,
        under the operator's lock."""
        with self._gram_eigh_lock:
            if self.gram_eigh is None:
                for solver in list(self.shifted_grams.values()):
                    solver._lu = None
                self.gram_eigh = np.linalg.eigh(self.gram_matrix())
        return self.gram_eigh


@functools.cache
def _blas_threads_api(module):
    """(get, set) of the OpenBLAS thread count that dlsym finds through the
    handle of the extension ``module``, so in the BLAS that it links, or None
    (MKL, Accelerate, Windows). The unsuffixed names come first; ``64_`` is
    an ILP64 build's suffix."""
    try:
        lib = ctypes.CDLL(importlib.import_module(module).__file__)
    except (ImportError, OSError):
        return None
    for suffix in ("", "64_"):
        for prefix in ("scipy_openblas", "openblas"):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _scipy_blas_pool():
    """scipy's OpenBLAS (get, set) when its thread pool is apart from
    numpy's; None when there is no OpenBLAS or numpy resolves the same one."""
    scipy_api = _blas_threads_api(_BLAS_EXTENSIONS["scipy"])
    numpy_api = _blas_threads_api(_BLAS_EXTENSIONS["numpy"])
    if scipy_api is None or numpy_api is None:
        return scipy_api
    shared = (ctypes.cast(numpy_api[1], ctypes.c_void_p).value
              == ctypes.cast(scipy_api[1], ctypes.c_void_p).value)
    return None if shared else scipy_api


@contextlib.contextmanager
def one_blas_thread(lib):
    """Run the block with the OpenBLAS pool of ``lib`` ("numpy" or "scipy")
    at one thread.

    pip's numpy and scipy each ship an OpenBLAS with its own pool, and after
    a call a pool's idle workers spin for more work, taking the CPU that the
    other pool's parallel region needs. The package's threaded calls into
    scipy, the Gram LU and the dense oracle's LAPACK routines, run on scipy's
    pool at one thread, so scipy's workers never wake. ``harness.run`` and
    the dense oracle's gemvs run on numpy's at one thread, so their bits do
    not depend on the thread count. Blocks may nest
    and run concurrently: the first to enter saves the count and the last to
    leave restores it, so concurrent callers cannot leave the pool at one
    thread. Nothing is set where there is no OpenBLAS pool, and for scipy
    where it is numpy's.
    """
    pool = (_scipy_blas_pool() if lib == "scipy"
            else _blas_threads_api(_BLAS_EXTENSIONS["numpy"]))
    if pool is None:
        yield
        return
    get, set_ = pool
    with _PINS_LOCK:
        pin = _PINS.setdefault(ctypes.cast(set_, ctypes.c_void_p).value, [0, None])
        if not pin[0]:
            pin[1] = get()
            set_(1)
        pin[0] += 1
    try:
        yield
    finally:
        with _PINS_LOCK:
            pin[0] -= 1
            if not pin[0]:
                set_(pin[1])


def blas_thread_counts():
    """Thread count of numpy's and of scipy's OpenBLAS pool, None where the
    lookup finds none."""
    counts = {}
    for lib, module in _BLAS_EXTENSIONS.items():
        api = _blas_threads_api(module)
        counts[lib] = None if api is None else api[0]()
    return counts


class KrylovBasis:
    """Lanczos basis Q of K(A^T A, q) shared by a matrix-free engine run's solves.

    K(A^T A - xi I, q) = K(A^T A, q) for every xi. A step is one ``gram_apply``
    M q_m (M = A^T A), the three-term step
    w = M q_m - alpha_m q_m - beta_{m-1} q_{m-1} and one classical Gram-Schmidt
    pass of w against all of Q (full reorthogonalization, Parlett 1980);
    alpha_m = q_m^T M q_m and ||w|| extend the tridiagonal T_m of
    M Q_m = Q_m T_m + beta_m q_{m+1} e_m^T. A pass that
    leaves less than ||w|| / sqrt(2) removed more than roundoff and runs once
    more (Kahan-Parlett; "twice is enough"): on clustered spectra w falls
    below the roundoff earlier products left along Q. Each M q_i is kept
    beside q_i (``products``), so a solve's residual takes no new product.
    Q stops growing at a vanished beta (``normalize``), at n columns, and once
    its m passes, O(n m) each, cost more than its m products: from there CG
    or MINRES costs less. Both are costed at the fastest rate seen, so a
    stall does not stop Q.
    """

    def __init__(self, op, q):
        self.op = op
        self.columns = Rows()
        self.columns.append(q)
        self.products = Rows()     # M q_i for the first len(alpha) columns
        self.alpha, self.beta = [], []
        self.product_s = self.pass_col_s = np.inf   # fastest product, pass per column

    def solve(self, xi, v, target):
        """(Q_m y, M Q_m y), (T_m - xi I) y = Q_m^T v, Q grown while it may until
        |beta_m y_m - q_{m+1}^T v| is at most ``target``; a singular T_m - xi I
        grows Q. M Q_m y is read from the kept products, with no new one."""
        c, y = self.columns.filled @ v, np.zeros(0)
        while True:
            m, estimate = len(self.alpha), np.inf
            if m:
                off = np.array(self.beta[:-1] or [0.0])     # dgtsv takes no empty array
                *_, y_m, info = scipy.linalg.lapack.dgtsv(off, np.subtract(self.alpha, xi),
                                                          off, c[:m])
                if info == 0 and np.all(np.isfinite(y_m)):
                    y = y_m
                    estimate = abs(self.beta[-1] * y[-1] - c[m]) if c.size > m else 0.0
            # c.size == m: Q is invariant; else compare m passes (1 + ... + m
            # columns) with m products, each at the fastest rate seen
            if estimate <= target or c.size == m or (m + 1) * self.pass_col_s > 2 * self.product_s:
                return y @ self.columns.filled[:y.size], y @ self.products.filled[:y.size]
            Q = self.columns.filled
            start = time.perf_counter()
            Mq = self.op.gram_apply(Q[-1])
            mid = time.perf_counter()
            alpha = Q[-1] @ Mq
            w = Mq - alpha * Q[-1]
            if self.beta:
                w -= self.beta[-1] * Q[-2]
            norm_w = np.linalg.norm(w)
            w -= (Q @ w) @ Q
            if np.linalg.norm(w) * np.sqrt(2) < norm_w:   # the pass removed more than roundoff
                w -= (Q @ w) @ Q
            self.product_s = min(self.product_s, mid - start)
            self.pass_col_s = min(self.pass_col_s, (time.perf_counter() - mid) / self.columns.size)
            q, beta = normalize(w, np.linalg.norm(Mq))
            self.products.append(Mq)
            self.alpha.append(alpha)
            self.beta.append(beta)
            if beta and self.columns.size < self.op.cols:   # n columns span R^n
                self.columns.append(q)
                c = np.append(c, q @ v)


class ShiftedGram:
    """Solver of (A^T A - xi I) x = v for one operator and one finite shift xi.

    On a dense payload the first solve factors the formed A^T A - xi I by LU
    (scipy's BLAS at one thread) and keeps the factor, unless the operator
    holds the eigendecomposition A^T A = V diag(lambda) V^T that
    ``LinearOperator.share_gram_eigh`` takes: then every solve is
    V((V^T v) / (lambda - xi)) and no LU is kept. A solver never takes it
    itself, so two shifts solved here hold two LUs; an engine takes it when
    its own pole sequence recurs (``rational.GramLanczos``). On a matrix-free
    operator the first pass is a Galerkin solve in the ``KrylovBasis`` the
    caller passes, if any and if that lowers the residual; CG for xi <= 0
    and MINRES for xi > 0 then refine what lies outside it in at most four
    passes on the true residual. Each asks for
    ``0.5 * rtol * ||v||`` and no smaller, and one that does not lower the
    residual ends the refinement with the best iterate. ``solve`` checks every
    return: against the factored A^T A on a dense payload (one n-by-n product,
    the factor's backward error), else, for the basis pass, with the products
    A^T A Q the basis keeps, and for a CG or MINRES pass with two operator
    products.
    ``factor_solve`` skips the check, for a caller that checks with
    ``require``. A residual above ``rtol * ||v||``, an exactly zero pivot or an
    exactly zero lambda - xi raises SolveFailure: xi is singular or too close
    to the spectrum of A^T A, or the iteration did not converge.
    """

    def __init__(self, op, xi):
        self.xi = require_number("shift xi", xi)
        if not np.isfinite(self.xi):
            raise ArgumentError(f"shift xi must be a finite number, got {xi!r}")
        self.op = weakref.proxy(op)  # op holds self: a cycle would delay freeing op
        self._lu = None            # (lu, piv) once factored; False at a zero pivot;
                                   # None again once op.gram_eigh is taken

    @classmethod
    def of(cls, op, xi):
        """The solver ``op`` keeps for xi, made at its first use."""
        xi = require_number("shift xi", xi)   # True is no key for the shift 1.0
        solver = op.shifted_grams.get(xi)
        if solver is None:
            solver = op.shifted_grams[xi] = cls(op, xi)
        return solver

    def factor_solve(self, v):
        """x from the dense factor alone, its residual left to the caller."""
        op = self.op
        # read together, so a solve never sees an LU released for an
        # eigendecomposition still being built (it waits for that instead)
        with op._gram_eigh_lock:
            eigh, factor = op.gram_eigh, self._lu
        if eigh is None and factor is None:
            # one Fortran-ordered copy, shifted on its diagonal and factored
            # in place: the LU is that of G - xi I without an n-by-n identity
            shifted = np.array(op.gram_matrix(), order="F")
            shifted.flat[::op.cols + 1] -= self.xi
            with one_blas_thread("scipy"):
                lu, piv, info = scipy.linalg.lapack.dgetrf(shifted, overwrite_a=True)
            # kept only while no shared eigendecomposition has been taken meanwhile
            factor = False if info else (lu, piv)
            with op._gram_eigh_lock:
                eigh = op.gram_eigh
                if eigh is None:
                    self._lu = factor
        if eigh is not None:
            lam, V = eigh
            gap = lam - self.xi
            if not np.all(gap):
                raise SolveFailure(f"shifted Gram solve residual inf: xi={self.xi} "
                                   "is an eigenvalue of A^T A")
            return V @ ((v @ V) / gap)
        if not factor:
            raise SolveFailure(f"shifted Gram solve residual inf: zero pivot, xi={self.xi}")
        x, _ = scipy.linalg.lapack.dgetrs(*factor, v)
        return x

    def solve(self, v, rtol=GRAM_SOLVE_RTOL, basis=None):
        """x with (A^T A - xi I) x = v, its residual checked at ``rtol`` in (0, 1);
        a matrix-free solve starts from ``basis``, a ``KrylovBasis`` of the operator."""
        if not (isinstance(rtol, numbers.Real) and 0.0 < rtol < 1.0):
            raise ArgumentError(f"rtol must lie in (0, 1), got {rtol}")
        op, xi = self.op, self.xi
        v = np.asarray(v, dtype=float)
        if v.shape != (op.cols,):
            raise ArgumentError(f"expected vector of length {op.cols}")
        if not np.all(np.isfinite(v)):
            raise ArgumentError("right-hand side contains non-finite entries")
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return np.zeros(op.cols)

        if op.dense is not None:
            x = self.factor_solve(v)
            r = op.gram_matrix() @ x - xi * x - v
        else:
            def shifted_mv(y):
                return op.gram_apply(y) - xi * y

            # dtype given, so scipy does not probe it with a product
            lin = scipy.sparse.linalg.LinearOperator(
                (op.cols, op.cols), matvec=shifted_mv, dtype=float)
            solver = scipy.sparse.linalg.cg if xi <= 0 else scipy.sparse.linalg.minres
            target = 0.5 * rtol * nv
            x, r, residual = np.zeros(op.cols), v, nv
            if basis is not None:
                x0, Mx0 = basis.solve(xi, v, target)
                r0 = v - (Mx0 - xi * x0)
                res0 = np.linalg.norm(r0)
                if res0 < residual:
                    x, r, residual = x0, r0, res0
            # iterative refinement against the true residual, keeping the best x
            for _ in range(4):
                if residual <= target:
                    break
                dx, _ = solver(lin, r, rtol=target / residual, maxiter=20 * op.cols)
                x_new = x + dx
                r_new = v - shifted_mv(x_new)
                res_new = np.linalg.norm(r_new)
                if not res_new < residual:
                    break
                x, r, residual = x_new, r_new, res_new

        self.require(r, v, rtol)
        return x

    def require(self, r, v, rtol):
        """Raise SolveFailure unless a solve's residual r has ||r|| <= rtol ||v||."""
        residual = np.linalg.norm(r)
        if not residual <= rtol * np.linalg.norm(v):
            raise SolveFailure(
                f"shifted Gram solve residual {residual:.3e} exceeds "
                f"{rtol:.1e}*||v||; xi={self.xi} may be too close to the spectrum of A^T A")


def solve_shifted_gram(op, xi, v, rtol=GRAM_SOLVE_RTOL, basis=None):
    """x with (A^T A - xi I) x = v, solved and checked by op's ShiftedGram for xi,
    from the caller's ``KrylovBasis`` ``basis`` on a matrix-free operator.

    On a dense payload each shift keeps its own LU unless a caller has taken
    ``op.share_gram_eigh()``; this function never takes it.
    """
    return ShiftedGram.of(op, xi).solve(v, rtol, basis)


@dataclass(frozen=True)
class SingularProfile:
    """Prescribed singular values, stored in descending order."""

    values: np.ndarray

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


def singular_profile(kind, count, lo, hi):
    """Build a descending profile on [lo, hi].

    ``chebyshev2`` maps cos(j*pi/(count-1)) affinely onto [lo, hi];
    ``logspace`` is geometric (requires lo > 0).
    """
    count = require_count("count", count)
    lo, hi = require_number("lo", lo), require_number("hi", hi)
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
    return SingularProfile(vals)


def _haar_from_rng(n, rng):
    """Q of the QR of a Gaussian draw, column j signed by R_jj, column-major; only
    Q outlives the QR, signed and transposed in place: an n-by-n block freed
    later stays resident on glibc's heap (README)."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(R))
    del R
    signs[signs == 0] = 1.0
    Q *= signs
    block = 64   # Q's memory gets Q^T one block pair at a time
    for i in range(0, n, block):
        for j in range(i, n, block):
            upper = Q[i:i + block, j:j + block].copy()
            Q[i:i + block, j:j + block] = Q[j:j + block, i:i + block].T
            Q[j:j + block, i:i + block] = upper.T
    return Q.T


def _as_seed_sequence(seed):
    """A fresh SeedSequence for ``seed``: a copy of a SeedSequence, which stays unspawned."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size)
    return np.random.SeedSequence(seed)


def synthesize_test_matrix(m, n, profile, seed):
    """Dense A = U diag(profile) V^T with independent Haar factors U, V.

    The operator keeps ``factors = (U_r, profile, V_r)``, r = min(m, n): by
    construction the SVD of A, so an oracle for it needs no second SVD. U and V
    are column-major, the layout in which the oracle, reading them in place,
    rounds as the shipped traces were recorded. One ``seed`` (an int or a
    SeedSequence, which is not consumed) gives one matrix.
    """
    m, n = require_count("m", m), require_count("n", n)
    if len(profile) != min(m, n):
        raise ArgumentError(
            f"profile length {len(profile)} != min(m, n) = {min(m, n)}")
    kid_u, kid_v = _as_seed_sequence(seed).spawn(2)
    r = min(m, n)
    U = _haar_from_rng(m, np.random.default_rng(kid_u))[:, :r]
    V = _haar_from_rng(n, np.random.default_rng(kid_v))[:, :r]
    A = (U * profile.values) @ V.T
    op = LinearOperator.from_dense(A)
    op.factors = (U, profile.values, V)
    return op


def load_dense_matrix(path):
    """Read the text matrix format: first line "m n", then m rows of n decimals."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            header = tuple(int(t) for t in fh.readline().split())
            data = np.loadtxt(fh, ndmin=2)
        except ValueError as exc:   # a UnicodeDecodeError, a non-number
            raise ArgumentError(f"{path}: not a text matrix: {exc}") from None
    if len(header) != 2:
        raise ArgumentError(f"{path}: first line must be 'm n'")
    m, n = header
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
