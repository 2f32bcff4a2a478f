"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Graph` is a per-pass tape of op nodes. While a graph is active
(``with Graph():``), every differentiable operation with a tracked input
appends its inputs and a closure that maps the output gradient to input
gradients. Each input is the node id of an op output recorded on this
graph, a leaf tensor that takes a gradient (``requires_grad``), or None.
Only op outputs point at the tape, so it lives exactly as long as some
output of its pass, whether or not backward ran. The tape is appended in
execution order, so it is already topologically sorted; :func:`backward`
walks it once in reverse and adds each leaf's gradient into its ``grad``
slot as it runs the op that read the leaf.

Backward consumes the tape: a closure runs at most once, and backward
drops it, with everything it kept, as soon as it has run, so each
activation is freed as the walk passes the op that kept it. The tape keeps
its length, but a second backward through a consumed node raises
:class:`~racdnn.errors.GraphError`. Backward owns the gradients the
closures return: the first one a leaf receives becomes its ``grad`` as it
is, and later ones are added into it in place, so a reference to
``p.grad`` sees later sums. A buffer that a closure hands to two inputs is
copied for every input after the first, and a leaf gets a copy of a
read-only array or of a view into a larger buffer. So a closure must not
return an array that it or the network keeps.

Ops follow one rule: a closure keeps only what its gradients read, and an
op computes no gradient for an input that :func:`needs_grad` reports
untracked, returning None in that slot. What backward can rebuild from an
array that lives anyway (an input, an output or a weight), or compute
again cheaply, it rebuilds rather than keeps; each op says what its tape
keeps. An op with one input meets the second half of the rule for free,
because with no tracked input it records nothing.
``nn.conv2d`` checks its input and ``attention.bilinear_sample`` its source
and its grid, because an image or a fixed grid is often untracked there;
the other ops with several inputs pass the output gradient through, or
see only tracked inputs in the networks.

Forward values are identical whether or not a graph is active; recording
only adds bookkeeping. A forward with no graph reuses the thread's scratch
memory for the convolutions' temporaries (``nn._scratch``).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArgumentError, GraphError, ShapeError

_tls = threading.local()


def _active_graph() -> Optional["Graph"]:
    return getattr(_tls, "graph", None)


class Graph:
    """Append-only tape of op nodes, confined to one thread per pass.
    :func:`backward` replaces each node it runs with None."""

    def __init__(self):
        self._nodes: list[Optional[tuple[tuple, Callable]]] = []

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

    def _input(self, t) -> Optional[int | Tensor]:
        """Input `t` as a node holds it: the node id of an op output recorded
        here, the tensor itself for a leaf that takes a gradient, or None."""
        if not isinstance(t, Tensor):
            return None
        if t._node is not None and t._node[0] is self:
            return t._node[1]
        return t if t.requires_grad else None


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


class _Unread(Tensor):
    """An op output of a :func:`checkpoint`'s rerun, computed when first
    read, so one that nothing reads is never computed."""

    __slots__ = ("_forward",)

    def __init__(self, forward: Callable[[], np.ndarray]):
        self._forward = forward
        self.grad, self.requires_grad, self._node = None, False, None

    @property
    def data(self) -> np.ndarray:
        if self._forward is not None:
            Tensor.data.__set__(self, self._forward())
            self._forward = None
        return Tensor.data.__get__(self)


def _check_tensor(t, what: str) -> None:
    """Reject `t`, named `what` in the error, unless it is a Tensor."""
    if not isinstance(t, Tensor):
        raise ArgumentError(f"{what} must be a Tensor, got {type(t).__name__}")


def needs_grad(t) -> bool:
    """True when a graph is active and `t` is tracked on it: an op output
    recorded there, or a leaf that takes a gradient. The test
    :func:`record` applies to each input."""
    g = _active_graph()
    return g is not None and g._input(t) is not None


def record(out_data: np.ndarray | Callable[[], np.ndarray], inputs: Sequence[Tensor],
           backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> Tensor:
    """Wrap `out_data` in a Tensor, appending a tape node when some input
    is tracked on the active graph. Only the output points at the node.
    An op whose `backward_fn` never reads its output may pass, as
    `out_data`, the function of no arguments that computes it, which runs
    at once, or, in a :func:`checkpoint`'s rerun, when the output is first
    read.

    `backward_fn` receives the output gradient and returns one gradient
    per entry of `inputs`. For an input that :func:`needs_grad` reported
    untracked when the op ran, it should return None rather than compute
    one. It should close over only what its gradients read, because the
    tape keeps it alive until backward runs it or the pass's last output
    dies. It runs at most once, and backward drops it after it runs. It
    must not return an array that it or the network keeps, because
    backward adopts the arrays it returns and adds later gradients into
    them in place; returning the same buffer for several inputs is fine.
    It may overwrite the output gradient it receives, for example to
    return it as an input gradient: no other gradient shares that buffer,
    and backward drops it after the call.
    """
    if not callable(out_data):
        out = Tensor(out_data)
    elif _recomputing():
        out = _Unread(out_data)
    else:
        out = Tensor(out_data())
    g = _active_graph()
    if g is None:
        return out
    ins = tuple(g._input(t) for t in inputs)
    if all(i is None for i in ins):
        return out
    g._nodes.append((ins, backward_fn))
    out._node = (g, len(g._nodes) - 1)
    return out


def _recomputing() -> bool:
    """True while a :func:`checkpoint` reruns its function on this thread,
    in backward; an op with a side effect, such as train-mode batchnorm's
    running averages, skips it then, since the first run made it."""
    return getattr(_tls, "recomputing", False)


@contextmanager
def _running(graph: Optional[Graph], recomputing: bool):
    """Make `graph` (None for no tape) this thread's active graph for the
    block, restoring the graph and the rerun state before it even if the
    block raises."""
    saved = _active_graph(), _recomputing()
    _tls.graph, _tls.recomputing = graph, recomputing
    try:
        yield
    finally:
        _tls.graph, _tls.recomputing = saved


def checkpoint(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
               params: Sequence[Tensor] = ()) -> Tensor:
    """``fn(*inputs)`` as one tape node that keeps `inputs` by reference and
    nothing else: gradient checkpointing (Chen et al. 2016, arXiv
    1604.06174).

    With no graph active this is ``fn(*inputs)``. While a graph is active,
    `fn` runs with no tape, and its output is recorded as one node whose
    inputs are `inputs` and `params`, the leaves `fn` may read besides
    them, so it records when any of those is tracked. Its backward reruns
    `fn` on a sub-tape of its own, on the same arrays, and walks that
    sub-tape from the output gradient it received: a tracked op output
    among `inputs` is a fresh leaf there, whose gradient the node returns,
    and a leaf takes its gradients in that walk, at the place of the node
    in the pass's walk. So the gradients are the plain tape's, byte for
    byte, when the rerun computes what the first run did. For that, `fn`
    must return one Tensor and read nothing that changes between its run
    and backward, and an op with a side effect must skip it in the rerun
    (:func:`_recomputing`). One gradient may differ in rounding: that of a
    tracked op output which `fn` reads in two ops, or which is passed
    twice, and which the pass also reads after the node. It sums the plain
    tape's terms in another order: the rerun sums `fn`'s terms on its fresh
    leaves, and the pass's walk adds those sums to the other terms. A
    second backward through the node raises
    :class:`~racdnn.errors.GraphError`, as through any consumed node.

    The rerun computes no output that nothing reads. An op that records
    its output as a function (:func:`record`), as every convolution in
    ``nn`` does, records its node there at once but computes its output
    only when the next op reads it. The walk reads only the nodes, so when
    such an op returns `fn`'s output, it records its node (for a fused
    batchnorm-ReLU convolution the batchnorm statistics and x-hat
    included) without running its convolution: the rerun costs what the
    first run did, less that forward.
    """
    g = _active_graph()
    if g is None:
        return fn(*inputs)
    with _running(None, _recomputing()):
        out = fn(*inputs)
    ins = [g._input(t) for t in inputs]
    # leaves as themselves, everything else as its array, so that the node
    # keeps no tensor that points back at this tape
    kept = [t if isinstance(i, Tensor) else t.data for t, i in zip(inputs, ins)]

    def bwd(og):
        args = [k if isinstance(k, Tensor) else Tensor(k, requires_grad=isinstance(i, int))
                for k, i in zip(kept, ins)]
        with _running(Graph(), True):
            node = fn(*args)._node
        if node is not None:
            _walk(node, og)
        grads = [a.grad if isinstance(i, int) else None for a, i in zip(args, ins)]
        return grads + [None] * len(params)

    return record(out.data, [*inputs, *params], bwd)


def _owned(a: np.ndarray) -> bool:
    """True when `a` can become a leaf's grad as it is: writable, and not a
    view that would keep a larger buffer alive."""
    if not a.flags.writeable:
        return False
    base = a.base
    return base is None or (isinstance(base, np.ndarray) and base.nbytes <= a.nbytes)


def backward(loss: Tensor) -> None:
    """Populate `grad` on every leaf reachable from `loss`, consuming the
    tape on the way.

    Gradients accumulate additively, both across multiple uses of a node
    within the graph and, for leaves, across graphs: a leaf's first
    gradient becomes its ``grad`` and later ones are added into that
    array in place, so a reference to ``p.grad`` sees later sums. Each
    closure runs once and is dropped with what it kept as soon as it has
    run, so a second backward through a node already run, on the same
    loss or on another loss of the same pass, raises
    :class:`~racdnn.errors.GraphError` before any grad changes. A buffer a
    closure returns for several inputs is copied for each input after the
    first, and a leaf gets a copy of a read-only array or of a view into
    a larger buffer, so no two grads share memory. For the same reason
    each closure receives an output gradient that no other node, leaf or
    closure holds, which it may overwrite; backward drops it after the
    call.
    """
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise ArgumentError("backward needs a scalar (single-element) tensor")
    if loss._node is None:
        raise GraphError("loss is not attached to any computation graph")
    _walk(loss._node, np.ones_like(loss.data))


def _walk(node: tuple, og: np.ndarray) -> None:
    """The loop of :func:`backward` from the tape node `node`, ``(graph,
    id)``, seeded with its output gradient `og`, which the walk may
    overwrite: ones for a loss, the gradient a :func:`checkpoint` node
    received for its rerun."""
    graph, out_id = node
    nodes = graph._nodes
    # check every node the walk reaches before it changes any grad
    reached = {out_id}
    for nid in range(out_id, -1, -1):
        if nid in reached:
            if nodes[nid] is None:
                raise GraphError(f"tape node {nid} was consumed by an earlier backward")
            reached.update(i for i in nodes[nid][0] if isinstance(i, int))
    grads: list[Optional[np.ndarray]] = [None] * (out_id + 1)
    grads[out_id] = og
    for nid in range(out_id, -1, -1):
        if grads[nid] is None:
            continue
        inputs, backward_fn = nodes[nid]
        in_grads = backward_fn(grads[nid])
        # drop the closure, what it kept and the output gradient before the
        # sums below allocate
        nodes[nid] = grads[nid] = backward_fn = None
        given = []
        for inp, g_in in zip(inputs, in_grads):
            if inp is None or g_in is None:
                continue
            if any(np.may_share_memory(g_in, other) for other in given):
                g_in = g_in.copy()
            given.append(g_in)
            if isinstance(inp, Tensor):
                if inp.grad is None:
                    inp.grad = g_in if _owned(g_in) else g_in.copy()
                else:
                    inp.grad += g_in
            else:
                grads[inp] = g_in if grads[inp] is None else grads[inp] + g_in
        # a gradient summed out of place is garbage now; do not hold it
        # through the next closure
        in_grads = given = g_in = None


def zero_grads(params: dict) -> None:
    """Clear the grad slot of every tensor in a name -> tensor dict, the
    form a network's ``parameters()`` returns."""
    for p in params.values():
        p.grad = None


# ---------------------------------------------------------------------------
# creation


def _validate_shape(shape) -> tuple[int, ...]:
    try:
        shape = tuple(shape)
    except TypeError:
        raise ShapeError(f"shape must be a sequence of integers, got {shape!r}") from None
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
    for t in (a, b):
        _check_tensor(t, "add operand")
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")

    def bwd(og):
        return og, og

    return record(a.data + b.data, [a, b], bwd)


def relu(a: Tensor) -> Tensor:
    _check_tensor(a, "relu input")
    out_data = np.maximum(a.data, 0.0)

    def bwd(og):
        # the output, which the next op keeps anyway, not a mask of the input
        return (og * (out_data > 0.0),)

    return record(out_data, [a], bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    _check_tensor(a, "sigmoid input")
    s = _sigmoid(a.data)

    def bwd(og):
        return (og * s * (1.0 - s),)

    return record(s, [a], bwd)


# ---------------------------------------------------------------------------
# structural / reductions


def reshape(a: Tensor, shape) -> Tensor:
    _check_tensor(a, "reshape input")
    shape = _validate_shape(shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} into {shape}")
    in_shape = a.shape

    def bwd(og):
        return (og.reshape(in_shape),)

    return record(a.data.reshape(shape), [a], bwd)


def masked_add(base: Tensor, delta: Tensor, mask: np.ndarray) -> Tensor:
    """base + delta where `mask` holds; elsewhere the result carries the
    base's bit pattern verbatim. Equivalent to a plain add when delta is
    zero off-mask, but keeps a -0.0 of the base. No code in the library
    calls it; the traced benchmark (``perfbench/tracing.py``) wraps it by
    name."""
    _check_tensor(base, "masked_add base")
    _check_tensor(delta, "masked_add delta")
    if base.shape != delta.shape:
        raise ShapeError(f"shape mismatch: {base.shape} vs {delta.shape}")
    mask = np.broadcast_to(mask, base.shape)
    out_data = np.where(mask, base.data + delta.data, base.data)

    def bwd(og):
        return og, og * mask

    return record(out_data, [base, delta], bwd)
