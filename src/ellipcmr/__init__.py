"""Numerical special functions of elliptic Calogero-Moser-Ruijsenaars models.

Modules map onto the main capabilities:

- domain / theta / gamma: elliptic kernels (theta functions, wp1, elliptic
  Gamma, weights) with certified truncation and analytic tau-derivatives;
- operators / kernels: CMR differential and difference operators, residual
  checks, kernel functions and their identities;
- bethe: Hermite's Bethe-ansatz eigenfunctions of the Lame equation;
- pseries: nome-series eigenfunctions of the two-variable eCS equation;
- transform: contour-quadrature kernel transforms and elliptic Jack-type
  eigenfunctions;
- cli: the `ellipcmr` command-line front end.
"""

__version__ = "0.1.0"

from .domain import DEFAULT_POLICY, EllipticDomain, RuijsenaarsParams, TruncationPolicy
from .errors import (BranchError, ConvergenceError, DomainError, EllipcmrError,
                     PoleError, ResonanceError, SeamError, TailBoundError, WindowError)
from .theta import (heat_constant_c0, heat_residual, theta1, theta1_dlog2,
                    theta1_dtau, theta1_jet, theta1_logderiv, theta1_power,
                    theta1_tau_logderiv, theta_q, wp1, wp1_fourier_coeffs)
from .gamma import elliptic_gamma, ground_state_psi0, weight_W, weight_Wrel
from .fields import SmoothField
from .operators import (CouplingSet, apply_deformed_ecs, apply_ecs,
                        apply_generalized_ecs, apply_ruijsenaars_D,
                        fit_nonstationary_E, ground_state_field,
                        half_period_shifts, heun_residual, lame_residual,
                        nonstationary_residual)
from .kernels import KernelSpec, kernel_K, kernel_identity_residual
from .bethe import (BetheState, bethe_residuals, bloch_multipliers,
                    energy_from_roots, hermite_psi, hermite_psi_field,
                    saddle_G_gradient, saddle_G_value, solve_bethe)
from .pseries import (LaurentPSeries, PSeriesTable, apply_L_series,
                      eigenvalue_from_gauge, solve_variant_I, solve_variant_II)
from .transform import (ContourConfig, ContourResult, Partition2,
                        assemble_P_lambda, contour_F_lambda,
                        eigen_residuals_P_lambda, kernel_transform,
                        n2_single_contour_P,
                        single_contour_psi_field)
