"""Rotation-vector kinematics: inverse right-Jacobian and the attitude ODE.

The body angular velocity ``omega`` and the rotation-vector rate are related
by the right-Jacobian, ``omega = J(phi) @ phi_dot``, so the kinematic ODE is
``phi_dot = jinv(phi) @ omega``.  Expanded, that is the classical Bortz
equation::

    phi_dot = omega + 1/2 phi x omega + c(|phi|) phi x (phi x omega)

with ``c(a) = (1/a^2) (1 - a sin(a) / (2 (1 - cos(a))))``.  Its arithmetic
is written once, in ``_apply_jacobian``, for the per-call functions on
floats and the array engine on columns; the branches of ``c`` stay outside
it, in ``jinv_coefficient`` and its masked form ``_batch.jinv_coefficients``.
``forward_jacobian`` inverts ``jinv``.  Only ``trajectory.omega_at`` of the
cone uses it, as the oracle of the cone's closed-form rate.
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

_SERIES_BRANCH = 1e-3

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
    at zero is 1/12 and ``c(pi) = 1/pi^2``.  Below 1e-3 the two-term series
    ``(1/12)(1 + a^2/60)`` is returned; between 1e-3 and 1 an extended Taylor
    series keeps full precision (the trig form cancels catastrophically
    there); beyond 1 the half-angle cotangent form is used.

    Raises ``AngleOutOfDomain`` unless ``0 <= angle < 2*pi - 1e-3``.
    """
    if not (0.0 <= angle < MAX_ANGLE):
        raise AngleOutOfDomain(
            f"angle {angle!r} outside [0, {MAX_ANGLE!r}) rad")
    if angle < _SERIES_BRANCH:
        return (1.0 + angle * angle / 60.0) / 12.0
    a2 = angle * angle
    if angle < 1.0:
        acc = 0.0
        for coef in reversed(_C_TAYLOR):
            acc = acc * a2 + coef
        return acc
    half = 0.5 * angle
    return (1.0 - half * math.cos(half) / math.sin(half)) / a2


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


def _inv3(m: np.ndarray) -> np.ndarray:
    """Inverse of a well-conditioned 3x3 matrix via the adjugate."""
    a, b, c = float(m[0, 0]), float(m[0, 1]), float(m[0, 2])
    d, e, f = float(m[1, 0]), float(m[1, 1]), float(m[1, 2])
    g, h, i = float(m[2, 0]), float(m[2, 1]), float(m[2, 2])
    ca = e * i - f * h
    cb = f * g - d * i
    cc = d * h - e * g
    det = a * ca + b * cb + c * cc
    return np.array([
        [ca / det, (c * h - b * i) / det, (b * f - c * e) / det],
        [cb / det, (a * i - c * g) / det, (c * d - a * f) / det],
        [cc / det, (b * g - a * h) / det, (a * e - b * d) / det],
    ])


def forward_jacobian(phi: np.ndarray) -> np.ndarray:
    """Right-Jacobian ``J`` with ``omega = J @ phi_dot``.

    No closed form is used: the matrix is the direct 3x3 inverse of
    ``jinv(phi)``, which removes any sign-convention risk.  Same angle
    domain as the exact inverse.
    """
    return _inv3(jinv(phi, JacobianMode.EXACT_CLOSED_FORM))


def bortz_rhs(phi: np.ndarray, omega: np.ndarray,
              mode: JacobianMode = JacobianMode.EXACT_CLOSED_FORM
              ) -> np.ndarray:
    """Rotation-vector rate ``jinv(phi, mode) @ omega``.

    Evaluated term by term as ``omega + 1/2 phi x omega +
    c phi x (phi x omega)``, which is the same matrix-vector product written
    without building the matrix.  At ``phi = 0`` the rate equals ``omega``.
    """
    px, py, pz = float(phi[0]), float(phi[1]), float(phi[2])
    wx, wy, wz = float(omega[0]), float(omega[1]), float(omega[2])
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
