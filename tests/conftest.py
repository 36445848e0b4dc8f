import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

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


def record_factors(monkeypatch, mark=lambda: None):
    """List that gets mark() appended at each LAPACK dgetrf call, that is at
    each LU of a shifted Gram matrix."""
    calls, dgetrf = [], scipy.linalg.lapack.dgetrf

    def recorded(*args, **kwargs):
        calls.append(mark())
        return dgetrf(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", recorded)
    return calls


@pytest.fixture
def small_op():
    op, _ = seeded_problem(5, 5, "chebyshev2", 1.0, 5.0, 7)
    return op
