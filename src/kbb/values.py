"""Evaluable state -> value functions shared by every algorithm.

States come in two kinds and are always handled as numpy arrays:

* tabular: a 1-d integer array of state indices,
* continuous: a 2-d float array, one row per state point.

Every value function here is immutable after construction and evaluates
vectorized over a batch of states.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "StateValueFn",
    "ConstantValueFn",
    "TableValueFn",
    "QuadraticValueFn",
    "ScaledValueFn",
    "as_states",
]


def as_states(states):
    """Normalize a batch of states to the canonical array layout.

    Integer input becomes a 1-d int64 index array (tabular kind); float
    input becomes a 2-d float64 array of points (continuous kind).
    """
    arr = np.asarray(states)
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64, copy=False).reshape(-1)
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"continuous states must be a 2-d array, got ndim={arr.ndim}")
    return arr


class StateValueFn:
    """Base contract: callable on a batch of states, returns a float vector."""

    def __call__(self, states) -> np.ndarray:
        raise NotImplementedError


class ConstantValueFn(StateValueFn):
    """The constant function; evaluates on either state kind."""

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def __call__(self, states):
        states = np.asarray(states)
        n = states.shape[0] if states.ndim >= 1 else 1
        return np.full(n, self.value)

    def __repr__(self):
        return f"ConstantValueFn({self.value!r})"


class TableValueFn(StateValueFn):
    """Dense per-state table for finite state spaces.

    States outside the table evaluate to ``default`` (0 by default) so the
    function stays total.
    """

    def __init__(self, values, default: float = 0.0):
        self.values = np.asarray(values, dtype=np.float64).reshape(-1)
        self.default = float(default)

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    def __call__(self, states):
        idx = as_states(states)
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("TableValueFn expects integer state indices")
        out = np.full(idx.shape[0], self.default)
        ok = (idx >= 0) & (idx < self.n_states)
        out[ok] = self.values[idx[ok]]
        return out

    def __repr__(self):
        return f"TableValueFn(n_states={self.n_states})"


class QuadraticValueFn(StateValueFn):
    """v(x) = x' P x + offset, optionally after a coordinate change.

    ``coord_map``, when given, is applied to the raw states first; it must
    map an (n, d) batch to an (n, d') batch matching ``p_mat``.
    """

    def __init__(self, p_mat, offset: float = 0.0, coord_map=None, sym_tol: float = 1e-10):
        p = np.asarray(p_mat, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("p_mat must be square")
        scale = max(1.0, float(np.abs(p).max()))
        if np.abs(p - p.T).max() > sym_tol * scale:
            raise ValueError("p_mat must be symmetric")
        self.p_mat = 0.5 * (p + p.T)
        self.offset = float(offset)
        self.coord_map = coord_map

    def __call__(self, states):
        x = as_states(states)
        if np.issubdtype(x.dtype, np.integer):
            raise ValueError("QuadraticValueFn expects continuous state points")
        if self.coord_map is not None:
            x = self.coord_map(x)
        return np.einsum("ni,ij,nj->n", x, self.p_mat, x) + self.offset

    def __repr__(self):
        d = self.p_mat.shape[0]
        return f"QuadraticValueFn(d={d}, offset={self.offset:.6g})"


class ScaledValueFn(StateValueFn):
    """A fixed multiple of another value function."""

    def __init__(self, fn, scale: float):
        self.fn = fn
        self.scale = float(scale)

    def __call__(self, states):
        return self.scale * self.fn(states)

    def __repr__(self):
        return f"ScaledValueFn({self.fn!r}, scale={self.scale:.6g})"
