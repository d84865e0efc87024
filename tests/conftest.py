"""Shared oracles for the test suite."""

import math

import numpy as np

from coning_kit.kinematics import jinv


def expm_series(m: np.ndarray, terms: int = 30) -> np.ndarray:
    """Truncated matrix-exponential series, independent of the package."""
    acc = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms + 1):
        term = term @ m / k
        acc = acc + term
    return acc


def logm_series(r: np.ndarray, terms: int = 60) -> np.ndarray:
    """Truncated matrix-logarithm series; needs |r - I| < 1 to converge."""
    d = r - np.eye(3)
    acc = np.zeros((3, 3))
    term = np.eye(3)
    for k in range(1, terms + 1):
        term = term @ d
        acc = acc + ((-1.0) ** (k + 1) / k) * term
    return acc


def cone_rate_oracle(signal, t: float) -> np.ndarray:
    """Rate ``J(phi) @ phi_dot`` of the rotation-vector cone at time ``t``,
    solved from the inverse right-Jacobian: ``jinv(phi) @ omega = phi_dot``."""
    a, w = signal.cone_angle, signal.precession_rate
    cw, sw = math.cos(w * t), math.sin(w * t)
    phi = np.array([a * cw, a * sw, 0.0])
    phi_dot = np.array([-a * w * sw, a * w * cw, 0.0])
    return np.linalg.solve(jinv(phi), phi_dot)


def random_rotation_vector(rng, max_angle: float) -> np.ndarray:
    """Uniform direction, uniform angle in [0, max_angle]."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return direction * rng.uniform(0.0, max_angle)


def node_sampler(rows):
    """The rates ``rows`` at s = 0, 1/2, 1, as ``rk_node_samples`` returns
    them, as the sampler that ``rk.delta_phi_closed`` reads."""
    return dict(zip((0.0, 0.5, 1.0), rows)).__getitem__
