"""Value-function containers."""

import numpy as np
import pytest

from kbb.values import (
    ConstantValueFn,
    QuadraticValueFn,
    ScaledValueFn,
    TableValueFn,
    as_states,
)


def test_as_states_tabular():
    out = as_states([1, 2, 3])
    assert out.dtype == np.int64 and out.shape == (3,)


def test_as_states_continuous_promotes_single_point():
    out = as_states(np.array([1.0, 2.0]))
    assert out.shape == (1, 2)


def test_table_lookup_and_default():
    f = TableValueFn([1.0, 2.0, 3.0], default=-1.0)
    assert np.allclose(f(np.array([0, 2, 5])), [1.0, 3.0, -1.0])


def test_table_rejects_float_states():
    with pytest.raises(ValueError):
        TableValueFn([1.0, 2.0])(np.zeros((2, 1)))


def test_constant_both_kinds():
    c = ConstantValueFn(2.0)
    assert np.allclose(c(np.array([0, 1, 2])), 2.0)
    assert np.allclose(c(np.zeros((4, 3))), 2.0)


def test_quadratic_eval():
    p = np.array([[2.0, 0.0], [0.0, 1.0]])
    f = QuadraticValueFn(p, offset=1.0)
    x = np.array([[1.0, 2.0], [0.0, 0.0]])
    assert np.allclose(f(x), [2 + 4 + 1, 1.0])


def test_quadratic_requires_symmetry():
    with pytest.raises(ValueError):
        QuadraticValueFn(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_quadratic_coord_map():
    f = QuadraticValueFn(np.eye(2), coord_map=lambda x: 2.0 * x)
    assert np.allclose(f(np.array([[1.0, 0.0]])), 4.0)


def test_scaled():
    f = ScaledValueFn(ConstantValueFn(3.0), -2.0)
    assert np.allclose(f(np.array([0])), -6.0)
