"""Rotation-vector and direction-cosine-matrix primitives on SO(3).

Conventions used throughout the package:

- A rotation vector ``phi`` is a numpy array of shape (3,), in radians; its
  norm is the rotation angle and its direction the rotation axis.
- A DCM ``T`` is a 3x3 proper orthogonal array in the passive convention:
  ``x_body = T @ x_inertial``.  With that convention
  ``T(phi) = I - sin(a) [e x] + (1 - cos(a)) [e x]^2`` where ``a = |phi|``
  and ``e = phi / a``, i.e. ``T(phi) = expm(-[phi x])``.  The reverse
  transformation is the transpose; no separate type is kept for it.
- The Lie-algebra sign convention with exponential coordinates ``s = -phi``
  is documented here once and never stored.

All functions are pure and operate on immutable values; they are safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NearPiRotation, NotNearOrthogonal, NotSkewSymmetric

#: Frobenius tolerance for accepting a matrix as skew-symmetric in ``vee``.
SKEW_TOL = 1e-9

#: Log-map domain margin: angles above ``pi - NEAR_PI_MARGIN`` are rejected.
NEAR_PI_MARGIN = 1e-6

#: Below this angle the exp/log maps switch to series branches.  The value
#: keeps the truncated rational coefficients accurate to ~1e-12 relative
#: while staying clear of the 0/0 axis extraction.
SMALL_ANGLE = 1e-4


def cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors (scalar path, faster than np.cross)."""
    ux, uy, uz = float(u[0]), float(u[1]), float(u[2])
    vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
    return np.array([uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx])


def wedge(v: np.ndarray) -> np.ndarray:
    """Return the skew-symmetric cross-product matrix [v x].

    Satisfies ``wedge(v) @ b == cross(v, b)`` for any 3-vector ``b``.
    """
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def vee(m: np.ndarray, tol_skew: float = SKEW_TOL) -> np.ndarray:
    """Extract the vector of a skew-symmetric matrix (inverse of ``wedge``).

    Reads the (2,1), (0,2), (1,0) entries.  Raises ``NotSkewSymmetric`` if
    ``|m + m^T|_F`` exceeds ``tol_skew``.
    """
    m = np.asarray(m, dtype=float)
    sym = m + m.T
    if math.sqrt(float((sym * sym).sum())) > tol_skew:
        raise NotSkewSymmetric(
            f"|M + M^T|_F = {math.sqrt(float((sym * sym).sum())):.3e} "
            f"exceeds {tol_skew:.1e}")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def dcm_from_rotation_vector(phi: np.ndarray) -> np.ndarray:
    """DCM of a rotation vector via the finite rotation formula.

    Returns ``I - sin(a) [e x] + (1 - cos(a)) [e x]^2`` with ``a = |phi|``,
    equal to ``expm(-[phi x])``.  Angles below ``SMALL_ANGLE`` use the series
    ``sin(a)/a ~ 1 - a^2/6`` and ``(1 - cos(a))/a^2 ~ 1/2 - a^2/24`` applied
    to ``[phi x]`` directly, avoiding the 0/0 axis extraction.
    """
    x, y, z = float(phi[0]), float(phi[1]), float(phi[2])
    n2 = x * x + y * y + z * z
    if n2 < SMALL_ANGLE * SMALL_ANGLE:
        k1 = 1.0 - n2 / 6.0
        k2 = 0.5 - n2 / 24.0
    else:
        angle = math.sqrt(n2)
        k1 = math.sin(angle) / angle
        k2 = (1.0 - math.cos(angle)) / n2
    return np.array(_dcm_entries(x, y, z, k1, k2)).reshape(3, 3)


def _dcm_entries(x, y, z, k1, k2):
    """Row-major entries of ``I - k1 [phi x] + k2 [phi x]^2``, on floats
    for ``dcm_from_rotation_vector`` or columns for ``_batch.dcm_many``."""
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    k1x, k1y, k1z = k1 * x, k1 * y, k1 * z
    return (1.0 - k2 * (yy + zz), k1z + k2 * xy, -k1y + k2 * xz,
            -k1z + k2 * xy, 1.0 - k2 * (xx + zz), k1x + k2 * yz,
            k1y + k2 * xz, -k1x + k2 * yz, 1.0 - k2 * (xx + yy))


def rotation_vector_from_dcm(t: np.ndarray) -> np.ndarray:
    """Rotation vector (principal log map) of a DCM.

    The returned vector satisfies ``dcm_from_rotation_vector(result) == t``
    and has norm in ``[0, pi)``.  Raises ``NearPiRotation`` when the principal
    angle exceeds ``pi - NEAR_PI_MARGIN``, where axis extraction from the skew
    part is ill-conditioned; callers in this package only measure small
    attitude errors.
    """
    # sin(angle) * axis, from the skew part of T^T - T.
    sx = 0.5 * (float(t[1][2]) - float(t[2][1]))
    sy = 0.5 * (float(t[2][0]) - float(t[0][2]))
    sz = 0.5 * (float(t[0][1]) - float(t[1][0]))
    s = math.sqrt(sx * sx + sy * sy + sz * sz)
    c = 0.5 * (float(t[0][0]) + float(t[1][1]) + float(t[2][2]) - 1.0)
    angle = math.atan2(s, c)
    if angle > math.pi - NEAR_PI_MARGIN:
        raise NearPiRotation(
            f"principal angle {angle!r} is within {NEAR_PI_MARGIN:.0e} of pi")
    if angle < SMALL_ANGLE:
        # Skew part is already angle*axis to O(angle^3); the asin series
        # factor restores the remaining amplitude.
        scale = 1.0 + (s * s) / 6.0
    else:
        scale = angle / s
    return np.array([scale * sx, scale * sy, scale * sz])


def compose(t2: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Product ``t2 @ t1`` (applied right to left), with drift control.

    The result is re-orthonormalized unless its orthogonality defect is at
    most 1e-12, so long chains of products stay on the manifold.  A product
    with a NaN or infinite entry has a NaN or infinite defect and is
    therefore passed to ``orthonormalize``, which raises
    ``NotNearOrthogonal``.
    """
    t = np.asarray(t2) @ np.asarray(t1)
    if not orthogonality_defect(t) <= 1e-12:
        t = orthonormalize(t)
    return t


def attitude_error_angle(t_est: np.ndarray, t_ref: np.ndarray) -> float:
    """Principal angle of the relative rotation between two DCMs, in rad.

    Zero iff the matrices are equal; symmetric in its arguments.  Propagates
    ``NearPiRotation`` for relative rotations near pi.
    """
    rel = np.asarray(t_est) @ np.asarray(t_ref).T
    rv = rotation_vector_from_dcm(rel)
    return math.sqrt(float(rv[0]) ** 2 + float(rv[1]) ** 2 + float(rv[2]) ** 2)


def orthogonality_defect(t: np.ndarray) -> float:
    """Frobenius norm of ``T^T T - I`` (zero on SO(3)).

    Evaluated on Python floats from the six distinct entries of the
    symmetric ``T^T T - I``; NaN or infinite when ``T`` has a non-finite
    entry.
    """
    (a, b, c), (d, e, f), (g, h, i) = np.asarray(t, dtype=float).tolist()
    d0 = a * a + d * d + g * g - 1.0
    d1 = b * b + e * e + h * h - 1.0
    d2 = c * c + f * f + i * i - 1.0
    o01 = a * b + d * e + g * h
    o02 = a * c + d * f + g * i
    o12 = b * c + e * f + h * i
    return math.sqrt(d0 * d0 + d1 * d1 + d2 * d2
                     + 2.0 * (o01 * o01 + o02 * o02 + o12 * o12))


def orthonormalize(m: np.ndarray) -> np.ndarray:
    """Project a near-orthogonal matrix onto SO(3).

    Iterates the polar-projection update ``T <- 3/2 T - 1/2 T T^T T`` until
    the orthogonality defect is at most 1e-14 (at most 10 iterations); the
    fixed point is the nearest proper orthogonal matrix in the Frobenius
    sense.  Raises ``NotNearOrthogonal`` if the defect is not below 0.1
    (a NaN or infinite entry included), ``det(m) <= 0``, or the iteration
    fails to converge.
    """
    t = np.array(m, dtype=float)
    defect = orthogonality_defect(t)
    if not defect < 0.1:
        raise NotNearOrthogonal(
            f"defect {defect:.3e}: input is not near SO(3)")
    det = np.linalg.det(t)
    if det <= 0.0:
        raise NotNearOrthogonal(
            f"defect {defect:.3e}, det {det:.3e}: input is not near SO(3)")
    for _ in range(10):
        if defect <= 1e-14:
            return t
        t = 1.5 * t - 0.5 * (t @ t.T @ t)
        defect = orthogonality_defect(t)
    if defect <= 1e-14:
        return t
    raise NotNearOrthogonal(f"projection stalled at defect {defect:.3e}")
