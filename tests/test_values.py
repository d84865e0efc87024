"""The package's immutable values: construction, validation, ``repr``,
identity equality and refused mutation.

``MeasurementWindow``, ``RatePolynomial``, ``ButcherTableau``,
``PolynomialRate``, ``FourierRate`` and ``ConingResult`` compare by
identity and print like frozen dataclasses.
"""

import copy
import pickle

import numpy as np
import pytest

from coning_kit.coning import ConingResult
from coning_kit.errors import DegenerateStep
from coning_kit.rate_model import MeasurementWindow, RatePolynomial
from coning_kit.rk import ButcherTableau
from coning_kit.trajectory import FourierRate, PolynomialRate

INC = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]


def values():
    """One of each value class, with the fields its ``repr`` shows."""
    window = MeasurementWindow(INC, 0.5, alignment=0)
    model = RatePolynomial(INC, origin=2.0)
    tableau = ButcherTableau([[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0],
                             [0.0, 0.5])
    poly = PolynomialRate(model)
    fourier = FourierRate((((0.5, 0.2, -0.3), 1.0, 0.0),))
    result = ConingResult(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    return [(window, ("increments", "dt", "alignment")),
            (model, ("coeffs", "origin")),
            (tableau, ("a", "b", "c")),
            (poly, ("model",)),
            (fourier, ("terms",)),
            (result, ("delta_phi", "beta"))]


@pytest.mark.parametrize("index", range(6))
def test_repr_is_the_dataclass_text(index):
    value, fields = values()[index]
    text = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
    assert repr(value) == f"{type(value).__qualname__}({text})"


@pytest.mark.parametrize("index", range(6))
def test_assignment_and_deletion_are_refused(index):
    value, fields = values()[index]
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert all(hasattr(value, f) for f in fields)


@pytest.mark.parametrize("index", range(6))
def test_equal_and_hashed_by_identity(index):
    value, fields = values()[index]
    twin, _ = values()[index]
    assert value == value and hash(value) == hash(value)
    assert value != twin
    assert len({value, twin}) == 2


@pytest.mark.parametrize("index", range(6))
def test_copies_hold_the_same_fields(index):
    value, fields = values()[index]
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin is not value
        assert repr(twin) == repr(value)


def test_construction_by_keyword_and_position_with_defaults():
    by_key = MeasurementWindow(increments=INC, dt=0.25)
    by_position = MeasurementWindow(INC, 0.25, 1)
    for window in (by_key, by_position):
        assert np.array_equal(window.increments, INC)
        assert window.dt == 0.25 and window.alignment == 1
        assert not window.increments.flags.writeable
    assert RatePolynomial(INC).origin == 0.0
    assert RatePolynomial(coeffs=INC, origin=1.5).origin == 1.5
    tab = ButcherTableau(a=[[0.0]], b=[1.0], c=[0.0])
    assert tab.n == 1 and tab._plan == (((0.0, ()),), ((0, 1.0),))
    model = RatePolynomial(INC)
    assert PolynomialRate(model=model).model is model
    assert FourierRate(terms=(([1.0, 0.0, 0.0], 2.0, 0.5),))._plan == \
        ((1.0, 0.0, 0.0, 2.0, 0.5),)
    result = ConingResult(beta=np.zeros(3), delta_phi=np.ones(3))
    assert np.array_equal(result.delta_phi, np.ones(3))


@pytest.mark.parametrize("build, error", [
    (lambda: MeasurementWindow([[0.1, 0.2, 0.3]], 0.5), ValueError),
    (lambda: MeasurementWindow([[np.nan, 0, 0], [0, 0, 0]], 0.5), ValueError),
    (lambda: MeasurementWindow(INC, 0.0), DegenerateStep),
    (lambda: MeasurementWindow(INC, 0.5, alignment=True), ValueError),
    (lambda: MeasurementWindow(INC, 0.5, alignment=2), ValueError),
    (lambda: RatePolynomial([[1.0, 2.0]]), ValueError),
    (lambda: RatePolynomial(INC, origin=np.inf), ValueError),
    (lambda: ButcherTableau([[0.0]], [1.0, 0.0], [0.0]), ValueError),
    (lambda: PolynomialRate(RatePolynomial(np.zeros((7, 3)))), ValueError),
    (lambda: FourierRate((((1.0, 0.0), 1.0, 0.0),)), ValueError),
    (lambda: FourierRate((((1.0, 0.0, 0.0), -1.0, 0.0),)), ValueError),
    (lambda: FourierRate((((1.0, 0.0, 0.0), 1.0, np.nan),)), ValueError),
])
def test_validation_errors(build, error):
    with pytest.raises(error):
        build()
