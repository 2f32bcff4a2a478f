"""Tape ops that only the tests use, built on ``racdnn.tensor.record``.

The gradchecks reduce an op's output to a scalar loss with ``sum_all`` and
``mul`` (and ``sub`` against a target); the composite-graph gradcheck also
runs ``matmul``. The networks need none of them, so they live here.
"""

import numpy as np

from racdnn.errors import ShapeError
from racdnn.tensor import Tensor, record


def _same_shape(a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b)

    def bwd(og):
        return og, -og

    return record(a.data - b.data, [a, b], bwd)


def mul(a: Tensor, b) -> Tensor:
    """a * b for a tensor or a scalar `b`; a scalar takes no gradient."""
    a_data = a.data
    if not isinstance(b, Tensor):
        b_data = np.float64(b)
        return record(a_data * b_data, [a], lambda og: (og * b_data,))
    _same_shape(a, b)
    b_data = b.data

    def bwd(og):
        return og * b_data, og * a_data

    return record(a_data * b_data, [a, b], bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data

    def bwd(og):
        return og @ b_data.T, a_data.T @ og

    return record(a_data @ b_data, [a, b], bwd)


def sum_all(a: Tensor) -> Tensor:
    in_shape = a.shape

    def bwd(og):
        return (np.full(in_shape, og.reshape(-1)[0]),)

    return record(np.array([a.data.sum()]), [a], bwd)
