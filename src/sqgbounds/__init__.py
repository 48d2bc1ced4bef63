"""Critical dissipative SQG on a bounded square with Dirichlet sqrt-Laplacian.

Spectral library plus CLI for simulating the equation and numerically
checking the boundary-regularity bound families (convexity identities,
decay envelopes, velocity/commutator scalings, heat-kernel envelopes).
"""
from .errors import (ConfigurationError, DomainError, NumericError,
                     PreconditionError, ShapeError, SqgError)
from .geometry import Geometry, build_square_geometry, fit_ground_state_equivalence
from .spectral import (GridField, SpectralField, forward, gradient, inverse,
                       mode_field)
from .operators import (ConvexFn, CutoffPair, VelocityField,
                        apply_lambda_power, commutator, finite_difference,
                        heat_semigroup, lambda_via_heat, nonlinear_dissipation,
                        riesz_velocity, short_time_velocity, softplus_hinge,
                        standard_cutoff, weighted_convexity_terms)
from .solver import RunResult, SolverConfig, SolverState, run, step
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .diagnostics import (DiagnosticsRecord, boundary_ratio, holder_seminorm,
                          interior_lipschitz, ratio_lp_norm, record,
                          weighted_ratio_norm)
from .inequalities import InequalityReport, write_report
from .config import RunConfig, load_config

__version__ = "0.1.0"
