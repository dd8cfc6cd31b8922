"""Exact arithmetic for a deformed symmetric-function calculus.

Subpackages cover the scalar ring (rational functions of the deformation
parameter), partitions and power-sum polynomials, the deformed orthogonal
basis and its principal values, a tridiagonal-in-bands transfer operator,
probability measures on diagrams and on the line, Markov dynamics driven by
nonnegative specializations, and truncated-series asymptotics (law of large
numbers and Gaussian covariance limits).
"""

__version__ = "0.1.0"

from .scalars import THETA, RationalFunction, parse_theta
from .errors import (DeficitError, DivergenceError, OrderError,
                     ResourceLimitError, ShapeError, StabilityError)
from .partitions import make_partition
from .psum import PSumPoly
from .specializations import Specialization, SpecializationUnion, specialize
from .jack import (branching_weight, jack_norm, jack_polynomial,
                   log_derivative_at_unity, lr_expand, principal_value,
                   reproducing_kernel, skew_jack)
from .operators import (apply_I, eigenvalue_of, eigenvalue_series, f_cumulant,
                        joint_moment_multitime, joint_moment_via_operators)
from .measures import (AtomicMeasure, MeasureOnYoung, empirical_density,
                       empirical_moments_from_pp, generating_function,
                       jack_measure, lr_measure, pp_measure,
                       pp_moments_from_empirical)
from .series import TruncSeries
from .asymptotics import (build_V, limit_covariance,
                          limit_covariance_two_times, limit_moment,
                          packed_limit_moments, toeplitz_wienerhopf_check,
                          walk_limit_data)
from .dynamics import (PathStats, WalkConfig, exact_evolve, height_function,
                       path_statistics, sample_path, step_mass_law,
                       transition_row)

__all__ = [name for name in dir() if not name.startswith("_")]
