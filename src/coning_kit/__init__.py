"""Strapdown attitude integration with solver-derived coning corrections.

The package builds attitude propagation from four layers: SO(3) primitives
(`so3`), the rotation-vector kinematic ODE (`kinematics`), a generic
explicit Runge-Kutta engine (`rk`), and polynomial rate reconstruction from
integrated gyro increments (`rate_model`).  On top sit the closed-form
coning corrections (`coning`), analytic truth signals (`trajectory`), a
convergence benchmark (`bench`), and a CLI (`cli`).
"""

from .bench import (ConvergenceReport, ErrorRecord, MethodId, MethodKind,
                    MethodSummary, SweepConfig, estimate_order, propagate,
                    run_sweep)
from .coning import (ConingResult, affine_coning_oracle,
                     appendix_increment_identity_check,
                     goodman_robinson_beta_quadrature, miller_single_speed,
                     rk4_theta2, rk4_theta3, two_speed_classic)
from .errors import (AngleOutOfDomain, ConfigError, ConingKitError,
                     DegenerateStep, EmptyWindow, InsufficientData,
                     NearPiRotation, NoConvergence, NonFiniteIncrement,
                     NotNearOrthogonal, SingularSystem, StageEvaluationError)
from .kinematics import JacobianMode, bortz_rhs, jinv, jinv_coefficient
from .rate_model import (MeasurementWindow, RatePolynomial, eval_rate,
                         fit_polynomial, rk_node_samples)
from .rk import (ButcherTableau, delta_phi_closed, integrate_attitude_step,
                 rk_step, tableau_explicit_midpoint, tableau_forward_euler,
                 tableau_rk3, tableau_rk4, validate_tableau)
from .so3 import (attitude_error_angle, compose, cross,
                  dcm_from_rotation_vector, orthogonality_defect,
                  orthonormalize, rotation_vector_from_dcm, wedge)
from .trajectory import (ConingRotationVector, FourierRate, PolynomialRate,
                         exact_attitude, omega_at, preset, reference_attitude,
                         synth_delta_theta, PRESET_NAMES)

__version__ = "0.1.0"
