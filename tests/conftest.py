import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings, strategies as st

from gmfkrylov import SingularProfile, singular_profile, synthesize_test_matrix

# property tests draw the same examples on every run and keep no example
# database, so the suite stays reproducible
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def seeded_problem(m, n, kind, lo, hi, seed):
    """Matched (operator, b) pair from one root seed, as the harness builds them."""
    root = np.random.SeedSequence(seed)
    mat_seed, b_seed = root.spawn(2)
    profile = singular_profile(kind, min(m, n), lo, hi)
    op = synthesize_test_matrix(m, n, profile, mat_seed)
    b = np.random.default_rng(b_seed).standard_normal(n)
    return op, b


def explicit_profile_problem(values, m, n, seed):
    root = np.random.SeedSequence(seed)
    mat_seed, b_seed = root.spawn(2)
    op = synthesize_test_matrix(m, n, SingularProfile(np.asarray(values, float)), mat_seed)
    b = np.random.default_rng(b_seed).standard_normal(n)
    return op, b


def _record_calls(monkeypatch, owner, name, mark):
    """List that gets mark() appended at each call of owner.<name>."""
    calls, fn = [], getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(mark())
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def record_factors(monkeypatch, mark=lambda: None):
    """List that gets mark() appended at each LAPACK dgetrf call, that is at
    each LU of a shifted Gram matrix."""
    return _record_calls(monkeypatch, scipy.linalg.lapack, "dgetrf", mark)


def record_eighs(monkeypatch):
    """List that grows at each numpy.linalg.eigh call, that is at each
    eigendecomposition of A^T A that an operator's shifts share."""
    return _record_calls(monkeypatch, np.linalg, "eigh", lambda: None)


@st.composite
def small_problems(draw):
    """(operator, b) of a shape up to 8 x 8, wide ones included, with its
    singular values drawn from [0.5, 4]."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    sigma = draw(st.lists(st.floats(0.5, 4.0), min_size=min(m, n), max_size=min(m, n)))
    return explicit_profile_problem(sorted(sigma, reverse=True), m, n,
                                    draw(st.integers(0, 2 ** 32 - 1)))


@pytest.fixture
def small_op():
    op, _ = seeded_problem(5, 5, "chebyshev2", 1.0, 5.0, 7)
    return op
