"""Polynomial angular-rate reconstruction from integrated gyro increments.

A rate-integrating gyro reports increments ``dtheta_j = integral of omega``
over consecutive intervals of length ``dt``.  Writing the rate as a
polynomial in the time since the start of the step being propagated,

    omega(t) = sum_i p_i * t**(i-1),    i = 1..Q,

each increment gives one linear equation in the coefficient vectors ``p_i``,
since the integral of each monomial over the increment's span is known in
closed form.  Q consecutive increments determine a degree Q-1 model, which
is then sampled at the three solver nodes t = 0, dt/2, dt.

Window layout: the increment at ``alignment`` (default 1) covers ``[0, dt]``
and is the step being propagated; increment j covers
``[(j - alignment) dt, (j - alignment + 1) dt]``.  A Q=2 window is therefore
(prior, current) and a Q=3 window (prior, current, next).  In normalized
time s = t/dt the linear system depends on (Q, alignment) alone, so it is
inverted once per window shape, and every fit and node sample applies it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DegenerateStep, Frozen, SingularSystem, _set


class MeasurementWindow(Frozen):
    """Consecutive integrated-rate increments sharing one step interval.

    ``increments`` is a (Q, 3) array, Q >= 2; ``dt`` the common interval in
    seconds; ``alignment`` the index of the increment being propagated, an
    ``int`` or numpy integer (not a ``bool``).  The increments are copied
    and frozen; the caller's array is untouched.
    """

    __slots__ = ("increments", "dt", "alignment")

    def __init__(self, increments: np.ndarray, dt: float, alignment: int = 1):
        inc = np.array(increments, dtype=float)
        if inc.ndim != 2 or inc.shape[1] != 3 or inc.shape[0] < 2:
            raise ValueError(
                f"increments must have shape (Q >= 2, 3), got {inc.shape}")
        if not all(map(math.isfinite, inc.ravel().tolist())):
            raise ValueError("increments must be finite")
        if not 0.0 < dt < math.inf:
            raise DegenerateStep(
                f"dt must be positive and finite, got {dt!r}")
        q = inc.shape[0]
        if (isinstance(alignment, bool)
                or not isinstance(alignment, (int, np.integer))
                or not 0 <= alignment < q):
            raise ValueError(
                f"alignment must be an integer in [0, {q}), got {alignment!r}")
        inc.setflags(write=False)
        _set(self, "increments", inc)
        _set(self, "dt", dt)
        _set(self, "alignment", alignment)

    @property
    def q(self) -> int:
        return self.increments.shape[0]


class RatePolynomial(Frozen):
    """Angular-rate model ``omega(t) = sum_i coeffs[i] * (t - origin)**i``.

    ``coeffs`` is a (Q, 3) array ordered by increasing power (row 0 is the
    constant term); it is copied and frozen.  The coefficients and the
    origin must be finite (``ValueError`` otherwise).
    """

    __slots__ = ("coeffs", "origin")

    def __init__(self, coeffs: np.ndarray, origin: float = 0.0):
        co = np.array(coeffs, dtype=float)
        if co.ndim != 2 or co.shape[1] != 3 or co.shape[0] < 1:
            raise ValueError(f"coeffs must have shape (Q >= 1, 3), got {co.shape}")
        if not (np.isfinite(co).all() and math.isfinite(origin)):
            raise ValueError("coefficients and origin must be finite")
        co.setflags(write=False)
        _set(self, "coeffs", co)
        _set(self, "origin", origin)

    @property
    def q(self) -> int:
        return self.coeffs.shape[0]


@functools.cache
def _solve(q: int, alignment: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the integral system of a (q, alignment) window, and its
    node map: that inverse's rates at s = t/dt = 0, 1/2, 1.  Row j of the
    system integrates each ``s**m`` over ``[j - alignment, j - alignment +
    1]``.  Raises ``SingularSystem`` above a condition estimate of 1e12;
    the monomial basis degrades quickly beyond Q ~ 5."""
    lo = np.arange(q, dtype=float)[:, None] - alignment
    powers = np.arange(1, q + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        design = ((lo + 1.0) ** powers - lo ** powers) / powers
    cond = np.linalg.cond(design) if np.isfinite(design).all() else math.inf
    if not cond < 1e12:
        raise SingularSystem(
            f"design matrix condition estimate {cond:.3e} exceeds 1e12")
    inv = np.linalg.inv(design)
    nodes = (np.array([0.0, 0.5, 1.0])[:, None] ** (powers - 1.0)) @ inv
    inv.flags.writeable = nodes.flags.writeable = False
    return inv, nodes


@np.errstate(over="ignore", invalid="ignore")
def fit_polynomial(window: MeasurementWindow) -> RatePolynomial:
    """Degree Q-1 rate model from any Q >= 2 consecutive increments.

    Affine at Q = 2, quadratic at Q = 3.  The shape's inverse integral
    system gives coefficient m times ``dt**(m + 1)``, divided by ``dt``
    that many times.  Raises ``SingularSystem`` for an ill-conditioned
    shape and ``ValueError`` if a coefficient overflows.
    """
    q, dt = window.q, window.dt
    coeffs = _solve(q, window.alignment)[0] @ window.increments
    for m in range(q):
        coeffs[m:] /= dt
    return RatePolynomial(coeffs)


def eval_rate(model: RatePolynomial, t: float) -> np.ndarray:
    """Evaluate the rate model at time ``t`` (Horner form)."""
    tau = t - model.origin
    acc = model.coeffs[-1].copy()
    for row in model.coeffs[-2::-1]:
        acc = acc * tau + row
    return acc


@np.errstate(over="raise")
def rk_node_samples(window: MeasurementWindow) -> np.ndarray:
    """The fitted model's rates ``w0, wm, w1`` at t = 0, dt/2, dt, as rows of
    a read-only (3, 3) array: the node map applied to the increments over
    ``dt``.  Affine model (Q = 2) at alignment 1: ``(prior + curr)/(2 dt)``,
    ``curr/dt``, ``(3 curr - prior)/(2 dt)``.  Raises ``SingularSystem`` for
    an ill-conditioned shape and ``ValueError`` if a sample overflows."""
    # The window's increments are finite, so only an overflow makes a
    # sample non-finite, and it raises here.
    try:
        nodes = (_solve(len(window.increments), window.alignment)[1]
                 @ window.increments / window.dt)
    except FloatingPointError as exc:
        raise ValueError(f"node samples overflow, dt = {window.dt!r}") from exc
    nodes.setflags(write=False)
    return nodes
