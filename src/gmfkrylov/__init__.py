"""Actions of generalized matrix functions on vectors.

f◇(A) applies a scalar function to the nonzero singular values of a
rectangular A. This package approximates f◇(A) b by projection onto
polynomial (Golub-Kahan) and rational Krylov subspaces, including a
short-recurrence rational Golub-Kahan method, evaluates a-priori error
bounds, and ships a deterministic experiment harness.
"""

__version__ = "0.1.0"

from .bounds import (BoundCurve, chui_hasson_constant,
                     polynomial_bound_curve, quasi_optimal_rational_bound,
                     rational_bound_curve, rho_branches, rho_of, sample_h_sup,
                     si_closed_form_bound, si_style_bound)
from .errors import (ArgumentError, ConfigError, EvaluationError, SolveFailure)
from .functions import ScalarFunction, builtin, builtin_names, companion_g, odd_monomial
from .golub_kahan import BidiagonalState, gk_approximate, gk_init, gk_step
from .operators import (LinearOperator, ShiftedGram, SingularProfile,
                        adjointness_defect, haar_orthogonal, load_dense_matrix,
                        save_dense_matrix, singular_profile, solve_shifted_gram,
                        synthesize_test_matrix)
from .poles import (INF, PoleSequence, extended_poles, load_user_poles,
                    polynomial_poles, si_optimal_pole)
from .rational import (GmfProjection, GramLanczos, RationalArnoldiFactorization,
                       project, rational_arnoldi, rational_gmf_approximate)
from .rectangular import gmf_via_transpose
from .reference import (CompactSvd, compact_svd, check_identities, gmf_apply_factors,
                        gmf_apply_reference, gmf_dense)
from .short_recurrence import QuasiseparableUpper, reconstruct_dense, rgk_run, rgk_step
from .traces import ConvergenceTrace, emit_dat, read_dat, relative_error
