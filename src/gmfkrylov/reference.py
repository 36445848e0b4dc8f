"""Dense SVD ground truth for f◇(A).

This is the oracle the projection methods are validated against; it is meant
for desk-scale matrices only. ``gmf_apply_factors`` takes f◇(A) b from an SVD
already at hand (a synthesized matrix's own factors), ``gmf_apply_reference``
from a dense SVD of A that it applies to b without forming U or V.
"""

import ctypes
import functools

import numpy as np
from scipy.linalg import cython_lapack

from .errors import ArgumentError, EvaluationError

RANK_RTOL = 1e-13


def _truncated(U, s, Vt, rtol=RANK_RTOL):
    """(U_r, s_r, V_r) of U diag(s) Vt with the singular values s <= rtol * s_1
    dropped: views of U, s and Vt when none is, copies of the kept parts when some are."""
    if s.size and s[0] > 0:
        keep = s > rtol * s[0]
    else:
        keep = np.zeros(s.shape, dtype=bool)
    if keep.all():
        return U, s, Vt.T
    return U[:, keep], s[keep], Vt[keep].T


def gmf_dense(f, A, rtol=RANK_RTOL):
    """U_r f(Sigma_r) V_r^T, the singular values of A at or below rtol * sigma_1 dropped."""
    A = np.asarray(A, dtype=float)
    U, s, V = _truncated(*np.linalg.svd(A, full_matrices=False), rtol=rtol)
    if s.size == 0:
        return np.zeros(A.shape)
    return (U * f(s)) @ V.T


def gmf_apply_factors(f, U, sigma, V, b):
    """f◇(A) b = U_r (f(sigma_r) * V_r^T b) for A = U diag(sigma) V^T.

    ``sigma`` is descending; values at or below RANK_RTOL * sigma_1 are dropped
    as in ``gmf_dense``. f◇(A) itself is never formed.
    """
    U, s, V = _truncated(U, sigma, V.T)
    if s.size == 0:
        return np.zeros(U.shape[0])
    return U @ (f(s) * (V.T @ np.asarray(b, dtype=float)))


@functools.cache
def _routine(name):
    """LAPACK's ``name``, from the function pointer that
    scipy.linalg.cython_lapack exports in its ``__pyx_capi__`` capsule."""
    # prototypes of its own: the attributes of ctypes.pythonapi's are shared
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsule = cython_lapack.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None)(get_pointer(capsule, get_name(capsule)))


def _lapack(name, *args):
    """Call LAPACK's ``name`` with every argument by address and ``info``
    last: an array by its data, an int as a C int, a str as a char. A nonzero
    ``info`` raises EvaluationError."""
    info = ctypes.c_int()
    _routine(name)(*(ctypes.c_void_p(a.ctypes.data) if isinstance(a, np.ndarray)
                     else ctypes.byref(ctypes.c_char(a.encode()) if isinstance(a, str)
                                       else ctypes.c_int(a))
                     for a in args), ctypes.byref(info))
    if info.value:
        raise EvaluationError(f"LAPACK {name} failed: info = {info.value}")


def gmf_apply_reference(f, A, b):
    """Ground truth for f◇(A) b, from a dense SVD of A applied to b alone.

    The Golub-Kahan route: T = A (or A^T when m < n), p-by-q with p >= q, is
    reduced to T = Q B P^T by Householder reflections (``dgebrd``), the
    bidiagonal B = U_B diag(sigma) V_B^T by divide and conquer (``dbdsdc``),
    and f◇(A) b = Q U_B f(sigma) V_B^T P^T b (for A^T, P V_B f(sigma) U_B^T
    Q^T b) takes the reflectors to the two vectors (``dormbr``), never to a
    matrix: U and V are not formed. The rank cut and the calls of f are those
    of ``gmf_apply_factors``, which takes the two gemvs. It holds T, U_B, V_B
    and dbdsdc's 3 q^2 work at once, about 6 n^2 doubles for a square A. The
    LAPACK calls run on scipy's OpenBLAS pool at one thread and the gemvs on
    numpy's (``operators.one_blas_thread``), so the result does not depend on
    the thread count and neither pool's idle workers spin against the other.
    """
    # imported here: krylov, which operators imports, imports this module
    from .krylov import _require_vector
    from .operators import one_blas_thread

    try:
        A = np.asarray(A, dtype=float)
    except (TypeError, ValueError):
        A = None
    if A is None or A.ndim != 2 or not A.size or not np.all(np.isfinite(A)):
        raise ArgumentError("A must be a finite, nonempty 2-d array")
    _require_vector("b", b, A.shape[1])
    b = np.array(b, dtype=float)    # dormbr overwrites it
    tall = A.shape[0] >= A.shape[1]
    T = np.array(A if tall else A.T, order="F")
    p, q = T.shape
    d, e, tauq, taup = np.empty(q), np.empty(max(q - 1, 1)), np.empty(q), np.empty(q)
    U_B, Vt_B = np.empty((q, q), order="F"), np.empty((q, q), order="F")
    one = np.empty(1)

    def reflect(vect, trans, c):
        """Q, Q^T (vect "Q", c of length p), P or P^T ("P", length q) times c."""
        rows, k, tau = (p, q, tauq) if vect == "Q" else (q, p, taup)
        # one column: lwork = 1 is enough, and the unblocked reflections cheapest
        _lapack("dormbr", vect, "L", trans, rows, 1, k, T, p, tau, c, rows, one, 1)
        return c

    with one_blas_thread("scipy"):
        _lapack("dgebrd", p, q, T, p, d, e, tauq, taup, one, -1)   # workspace query
        lwork = int(one[0])
        _lapack("dgebrd", p, q, T, p, d, e, tauq, taup, np.empty(lwork), lwork)
        # Q and IQ are not read with COMPQ = "I"
        _lapack("dbdsdc", "U", "I", q, d, e, U_B, q, Vt_B, q, one, one,
                np.empty(3 * q * q + 4 * q), np.empty(8 * q, dtype=np.intc))
        c = reflect("P", "T", b) if tall else reflect("Q", "T", b)[:q]
    with one_blas_thread("numpy"):
        w = (gmf_apply_factors(f, U_B, d, Vt_B.T, c) if tall
             else gmf_apply_factors(f, Vt_B.T, d, U_B, c))
    with one_blas_thread("scipy"):
        if not tall:
            return reflect("P", "N", w)
        y = np.zeros(p)
        y[:q] = w
        return reflect("Q", "N", y)
