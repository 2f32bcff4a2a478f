"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Graph` is a per-pass tape. While a graph is active (``with
Graph():``), every differentiable operation appends a node holding the ids
of its tracked inputs and a closure that maps the output gradient to input
gradients. The tape is appended in execution order, so it is already
topologically sorted; :func:`backward` walks it once in reverse and
accumulates gradients into the ``grad`` slot of every reachable leaf.

Ops follow one rule: a closure keeps only what its gradients read, and an
op computes no gradient for an input that :func:`needs_grad` reports
untracked, returning None in that slot. An op with one input meets the
second half for free, because with no tracked input it records nothing.
``nn.conv2d`` checks its input and ``attention.bilinear_sample`` its source
and its grid, because an image or a fixed grid is often untracked there;
the other ops with several inputs pass the output gradient through, or
see only tracked inputs in the networks.

Forward values are identical whether or not a graph is active; recording
only adds bookkeeping.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArgumentError, GraphError, ShapeError

_tls = threading.local()


def _active_graph() -> Optional["Graph"]:
    return getattr(_tls, "graph", None)


class _Node:
    """One tape entry: a leaf (parameter/input) or a recorded operation."""

    __slots__ = ("inputs", "backward", "tensor")

    def __init__(self, inputs, backward, tensor=None):
        self.inputs = inputs
        self.backward = backward
        self.tensor = tensor


class Graph:
    """Append-only computation tape, confined to one thread per pass."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Graph":
        if _active_graph() is not None:
            raise ArgumentError("a graph is already active on this thread")
        _tls.graph = self
        return self

    def __exit__(self, *exc):
        _tls.graph = None
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def _leaf_id(self, t: "Tensor") -> Optional[int]:
        """Node id of `t` in this graph, registering leaves lazily."""
        if t._node is not None and t._node[0] is self:
            return t._node[1]
        if t.requires_grad:
            self._nodes.append(_Node((), None, t))
            t._node = (self, len(self._nodes) - 1)
            return t._node[1]
        return None

    def _add_op(self, input_ids, backward_fn) -> int:
        self._nodes.append(_Node(input_ids, backward_fn))
        return len(self._nodes) - 1


class Tensor:
    """n-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._node: Optional[tuple[Graph, int]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.size != 1:
            raise ArgumentError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def needs_grad(t) -> bool:
    """True when a graph is active and `t` is a tensor tracked on it: the
    test :meth:`Graph._leaf_id` applies, without registering a leaf."""
    g = _active_graph()
    return g is not None and isinstance(t, Tensor) and (
        t.requires_grad or (t._node is not None and t._node[0] is g))


def record(out_data: np.ndarray, inputs: Sequence[Tensor],
           backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> Tensor:
    """Wrap `out_data` in a Tensor, appending a tape node if recording.

    `backward_fn` receives the output gradient and returns one gradient
    per entry of `inputs`. For an input that :func:`needs_grad` reported
    untracked when the op ran, it should return None rather than compute
    one. It should close over only what its gradients read, because the
    tape keeps it alive until backward.
    """
    out = Tensor(out_data)
    g = _active_graph()
    if g is None:
        return out
    ids = tuple(g._leaf_id(t) if isinstance(t, Tensor) else None for t in inputs)
    if all(i is None for i in ids):
        return out
    out._node = (g, g._add_op(ids, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Populate `grad` on every leaf reachable from `loss`.

    Gradients accumulate additively, both across multiple uses of a node
    within the graph and across repeated backward calls.
    """
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise ArgumentError("backward needs a scalar (single-element) tensor")
    if loss._node is None:
        raise GraphError("loss is not attached to any computation graph")
    graph, loss_id = loss._node
    grads: list[Optional[np.ndarray]] = [None] * (loss_id + 1)
    grads[loss_id] = np.ones_like(loss.data)
    for nid in range(loss_id, -1, -1):
        out_grad = grads[nid]
        grads[nid] = None
        if out_grad is None:
            continue
        node = graph._nodes[nid]
        if node.backward is None:
            leaf = node.tensor
            # copy: a backward closure may hand the same array to two inputs
            leaf.grad = out_grad.copy() if leaf.grad is None else leaf.grad + out_grad
            continue
        for in_id, g_in in zip(node.inputs, node.backward(out_grad)):
            if in_id is None or g_in is None:
                continue
            grads[in_id] = g_in if grads[in_id] is None else grads[in_id] + g_in
    # leaves let go of the finished tape, so it dies with the caller's last
    # output tensor instead of living on until the next pass
    for node in graph._nodes:
        if node.tensor is not None:
            node.tensor._node = None


def zero_grads(params: dict) -> None:
    """Clear the grad slot of every tensor in a name -> tensor dict, the
    form a network's ``parameters()`` returns."""
    for p in params.values():
        p.grad = None


# ---------------------------------------------------------------------------
# creation


def _validate_shape(shape) -> tuple[int, ...]:
    shape = tuple(shape)
    if len(shape) == 0:
        raise ShapeError("shape must be non-empty")
    if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) for s in shape):
        raise ShapeError(f"dimensions must be integers, got {shape}")
    if any(s < 1 for s in shape):
        raise ShapeError(f"all dimensions must be >= 1, got {shape}")
    return shape


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(_validate_shape(shape)), requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(_validate_shape(shape), float(value)), requires_grad)


def he_normal(shape, rng: np.random.Generator, requires_grad: bool = False) -> Tensor:
    """Normal(0, sqrt(2/fan_in)) initialization, suited to ReLU stacks. The
    fan-in is derived from the shape: every axis after the first, so
    ``c_in*k*k`` for a [c_out, c_in, k, k] kernel and ``n`` for [out, n]
    linear weights."""
    shape = _validate_shape(shape)
    std = np.sqrt(2.0 / float(math.prod(shape[1:])))
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad)


# ---------------------------------------------------------------------------
# elementwise operations


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")

    def bwd(og):
        return og, og

    return record(a.data + b.data, [a, b], bwd)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)
    mask = a.data > 0.0 if needs_grad(a) else None

    def bwd(og):
        return (og * mask,)

    return record(out_data, [a], bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)

    def bwd(og):
        return (og * s * (1.0 - s),)

    return record(s, [a], bwd)


# ---------------------------------------------------------------------------
# structural / reductions


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} into {shape}")
    in_shape = a.shape

    def bwd(og):
        return (og.reshape(in_shape),)

    return record(a.data.reshape(shape), [a], bwd)


def masked_add(base: Tensor, delta: Tensor, mask: np.ndarray) -> Tensor:
    """base + delta where `mask` holds; elsewhere the result carries the
    base's bit pattern verbatim. Equivalent to a plain add when delta is
    zero off-mask, but immune to floating-point signed-zero artifacts."""
    if base.shape != delta.shape:
        raise ShapeError(f"shape mismatch: {base.shape} vs {delta.shape}")
    mask = np.broadcast_to(mask, base.shape)
    out_data = np.where(mask, base.data + delta.data, base.data)

    def bwd(og):
        return og, og * mask

    return record(out_data, [base, delta], bwd)
