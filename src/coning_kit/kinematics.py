"""Rotation-vector kinematics: inverse right-Jacobian and the attitude ODE.

The body angular velocity ``omega`` and the rotation-vector rate are related
by the right-Jacobian, ``omega = J(phi) @ phi_dot``, so the kinematic ODE is
``phi_dot = jinv(phi) @ omega``.  Expanded, that is the classical Bortz
equation::

    phi_dot = omega + 1/2 phi x omega + c(|phi|) phi x (phi x omega)

with ``c(a) = (1/a^2) (1 - a sin(a) / (2 (1 - cos(a))))``.  Its arithmetic
is written once, in ``_apply_jacobian``, and so is each of the two forms of
``c``, in ``_coefficient_series`` below 1 rad and ``_coefficient_trig``
from there: each for the per-call functions on floats and for the array
engine on columns.  ``jinv_coefficient`` picks the form of one angle, and
``_batch.jinv_coefficients`` masks a column by the same rule.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import AngleOutOfDomain
from .so3 import wedge

_EYE3 = np.eye(3)

#: The coefficient c has a genuine pole at 2*pi; the usable domain stops
#: short of it.  Integration steps never approach this bound.
MAX_ANGLE = 2.0 * math.pi - 1e-3

# Taylor coefficients of c(a) in powers of a^2, exact rationals rounded to
# double.  Through a^20 the truncation error is below 1e-16 relative for
# a <= 1, where the closed trig form would lose ~eps/a^2 to cancellation.
_C_TAYLOR = (
    1.0 / 12.0,
    1.0 / 720.0,
    1.0 / 30240.0,
    1.0 / 1209600.0,
    1.0 / 47900160.0,
    5.284190138687493e-10,
    1.3382536530684679e-11,
    3.3896802963225827e-13,
    8.586062056277845e-15,
    2.174868698558062e-16,
    5.5090028283602295e-18,
)


class JacobianMode(Enum):
    """Which form of the inverse right-Jacobian to evaluate."""

    EXACT_CLOSED_FORM = "exact"
    THIRD_ORDER_APPROX = "approx"


def jinv_coefficient(angle: float) -> float:
    """Coefficient of the ``phi x (phi x omega)`` term of the Bortz equation.

    Evaluates ``c(a) = (1/a^2)(1 - a sin(a) / (2 (1 - cos(a))))``; the limit
    at zero is 1/12 and ``c(pi) = 1/pi^2``.  Below 1 rad the Taylor series
    in ``a^2`` keeps full precision (the trig form cancels catastrophically
    there); from 1 rad the half-angle cotangent form is used.

    Raises ``AngleOutOfDomain`` unless ``0 <= angle < 2*pi - 1e-3``.
    """
    if not (0.0 <= angle < MAX_ANGLE):
        raise AngleOutOfDomain(
            f"angle {angle!r} outside [0, {MAX_ANGLE!r}) rad")
    if angle < 1.0:
        return _coefficient_series(angle * angle)
    return _coefficient_trig(angle, math)


def _coefficient_series(a2):
    """``c`` by Horner's rule of ``_C_TAYLOR`` in ``a^2``, for angles below
    1 rad; on floats or columns."""
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = _C_TAYLOR
    return c0 + a2 * (c1 + a2 * (c2 + a2 * (c3 + a2 * (c4 + a2 * (c5 + a2 * (
        c6 + a2 * (c7 + a2 * (c8 + a2 * (c9 + a2 * c10)))))))))


def _coefficient_trig(a, lib):
    """``c`` in half-angle form, for angles from 1 rad to ``MAX_ANGLE``;
    floats with ``lib=math``, columns with ``lib=np``."""
    half = 0.5 * a
    return (1.0 - half * lib.cos(half) / lib.sin(half)) / (a * a)


def jinv(phi: np.ndarray,
         mode: JacobianMode = JacobianMode.EXACT_CLOSED_FORM) -> np.ndarray:
    """Inverse right-Jacobian ``I + 1/2 [phi x] + c [phi x]^2``.

    With ``EXACT_CLOSED_FORM`` the coefficient is ``jinv_coefficient(|phi|)``
    (domain-checked); with ``THIRD_ORDER_APPROX`` it is the constant 1/12 and
    any finite ``phi`` is accepted.
    """
    x, y, z = float(phi[0]), float(phi[1]), float(phi[2])
    angle = math.sqrt(x * x + y * y + z * z)
    if mode is JacobianMode.EXACT_CLOSED_FORM:
        c = jinv_coefficient(angle)
    else:
        c = 1.0 / 12.0
    w = wedge(phi)
    return _EYE3 + 0.5 * w + c * (w @ w)


def bortz_rhs(phi: np.ndarray, omega: np.ndarray,
              mode: JacobianMode = JacobianMode.EXACT_CLOSED_FORM
              ) -> np.ndarray:
    """Rotation-vector rate ``jinv(phi, mode) @ omega``.

    Evaluated term by term as ``omega + 1/2 phi x omega +
    c phi x (phi x omega)``, which is the same matrix-vector product written
    without building the matrix.  At ``phi = 0`` the rate equals ``omega``.
    """
    px, py, pz = np.asarray(phi, dtype=float).tolist()
    wx, wy, wz = np.asarray(omega, dtype=float).tolist()
    if mode is JacobianMode.EXACT_CLOSED_FORM:
        c = jinv_coefficient(math.sqrt(px * px + py * py + pz * pz))
    else:
        c = 1.0 / 12.0
    return np.array(_apply_jacobian(px, py, pz, wx, wy, wz, c, 1.0))


def _apply_jacobian(px, py, pz, wx, wy, wz, c, dt):
    """``dt (I + 1/2 [phi x] + c [phi x]^2) omega`` on floats or columns.

    With ``c = jinv_coefficient(|phi|)`` or 1/12 it is a Bortz stage;
    ``bortz_rhs`` passes ``dt = 1.0``, which changes no bit.
    """
    cx = py * wz - pz * wy
    cy = pz * wx - px * wz
    cz = px * wy - py * wx
    dx = py * cz - pz * cy
    dy = pz * cx - px * cz
    dz = px * cy - py * cx
    return (dt * (wx + 0.5 * cx + c * dx),
            dt * (wy + 0.5 * cy + c * dy),
            dt * (wz + 0.5 * cz + c * dz))
