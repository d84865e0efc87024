"""The public names of ``coning_kit``, pinned: any change to the package's
exports shows here as a deliberate diff."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``dir(coning_kit)`` without underscored names, on a fresh import: the
#: exported functions, classes and constants, and the submodules that the
#: package itself imports.
PUBLIC_NAMES = (
    "AngleOutOfDomain", "ButcherTableau", "ConfigError", "ConingKitError",
    "ConingResult", "ConingRotationVector", "ConvergenceReport",
    "DegenerateStep", "EmptyWindow", "ErrorRecord", "FourierRate",
    "InsufficientData", "JacobianMode", "MeasurementWindow", "MethodId",
    "MethodKind", "MethodSummary", "NearPiRotation", "NoConvergence",
    "NonFiniteIncrement", "NotNearOrthogonal", "PRESET_NAMES",
    "PolynomialRate", "RatePolynomial", "SingularSystem",
    "StageEvaluationError", "SweepConfig", "affine_coning_oracle",
    "appendix_increment_identity_check", "attitude_error_angle", "bench",
    "bortz_rhs", "compose", "coning", "cross", "dcm_from_rotation_vector",
    "delta_phi_closed", "errors", "estimate_order", "eval_rate",
    "exact_attitude", "fit_polynomial", "goodman_robinson_beta_quadrature",
    "integrate_attitude_step", "jinv", "jinv_coefficient", "kinematics",
    "miller_single_speed", "omega_at", "orthogonality_defect",
    "orthonormalize", "preset", "propagate", "rate_model",
    "reference_attitude", "rk", "rk4_theta2", "rk4_theta3",
    "rk_node_samples", "rk_step",
    "rotation_vector_from_dcm", "run_sweep", "so3", "synth_delta_theta",
    "tableau_explicit_midpoint", "tableau_forward_euler", "tableau_rk3",
    "tableau_rk4", "trajectory", "two_speed_classic", "validate_tableau",
    "wedge",
)


def test_public_names_pinned():
    # A fresh interpreter: in this one, importing e.g. coning_kit.cli adds
    # the submodule to the package's names.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import coning_kit\n"
         "print(*sorted(n for n in dir(coning_kit) if n[0] != '_'))"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert tuple(proc.stdout.split()) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 72
