"""A randomized differential test of the tape (McKeeman 1998, "Differential
Testing for Software"; Claessen & Hughes 2000, "QuickCheck").

A seeded generator builds programs of 3-8 ops on one [2,3,6,6] input: the
elementwise ops (``T.add`` with fan-out, ``relu``, ``sigmoid``,
``reshape``), ``linear`` on a reshaped value, ``conv2d`` at stride 1 or,
on an unpooled value, at stride 2, ``bn_relu_conv2d`` in both batchnorm
modes, ``unpool_conv2d`` (by 2, a 3x3 or 5x5 kernel) and
``bn_relu_unpool_conv2d`` in both batchnorm modes, and the attention
window path ``constrain_attention -> affine_grid -> bilinear_sample``, as
``st`` or ``st_inverse``, with a tracked or an untracked source. A
spatial value is [2,3,6,6] or, after an unpool, [2,3,12,12]; a reshape
makes a [2,n] value of it, or back. The loss weighs the last value with
fixed weights. Each program is held to two oracles:

1. central differences (``gradcheck.central_diff_refined``) of the input
   and parameter gradients at a few coordinates each;
2. the same program with one ``T.checkpoint`` segment: the loss, which
   also equals the loss with no graph, and every gradient are the plain
   tape's byte for byte, except in the case ``T.checkpoint`` names (an op
   output read twice in the segment and read again after it), where the
   gradients sum in another order and are held to ``rtol=1e-14``.

A few seeds run in tier-1; the sweep of 300 seeds is marked slow.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from racdnn import attention as at
from racdnn import nn
from racdnn import tensor as T

from gradcheck import central_diff_refined
from ops import mul, sum_all

SHAPE = (2, 3, 6, 6)         # the input's, and a window's output
BIG = (2, 3, 12, 12)         # an unpooled value's
KINDS = ("add", "relu", "sigmoid", "reshape", "linear", "conv2d", "bn_relu_conv2d",
         "unpool_conv2d", "bn_relu_unpool_conv2d", "window")
UNPOOLS = {"unpool_conv2d", "bn_relu_unpool_conv2d"}
CONVS = {"conv2d", "bn_relu_conv2d"} | UNPOOLS
FD_TOL = 1e-4


def takes(kind: str, shape: tuple) -> bool:
    """Whether an op of `kind` reads a value of `shape`."""
    if kind in UNPOOLS:
        return shape == SHAPE
    if kind in ("conv2d", "bn_relu_conv2d", "window"):
        return len(shape) == 4
    if kind == "linear":
        return len(shape) == 2
    return True


@dataclass
class Op:
    kind: str
    args: tuple                                  # value ids read; value 0 is the input
    params: dict = field(default_factory=dict)   # leaves that take a gradient
    fixed: dict = field(default_factory=dict)    # arrays that take none
    mode: str = ""                               # batchnorm mode
    stride: int = 1                              # a conv2d's stride
    inverse: bool = False                        # st_inverse rather than st
    tracked: bool = True                         # False: the window samples a fixed image

    def __str__(self):
        extra = {"conv2d": f"stride {self.stride}",
                 "bn_relu_conv2d": self.mode,
                 "unpool_conv2d": f"{self.kernel}x{self.kernel}",
                 "bn_relu_unpool_conv2d": f"{self.kernel}x{self.kernel} {self.mode}",
                 "window": ("st_inverse" if self.inverse else "st")
                 + ("" if self.tracked else " untracked")}.get(self.kind, "")
        return f"{self.kind}{'(' + extra + ')' if extra else ''}{list(self.args)}"

    @property
    def kernel(self) -> int:
        """A convolution's kernel size; 0 for an op with no kernel."""
        return self.params["w"].shape[-1] if self.kind in CONVS else 0


def kernel(rng, size=3):
    return rng.normal(size=(3, 3, size, size)) * np.sqrt(2.0 / (3 * size * size))


def batchnorm(op, rng):
    """Draw a batchnorm mode, its parameters and its running statistics into `op`."""
    op.mode = str(rng.choice(["train", "infer"]))
    op.params.update(gamma=rng.uniform(0.5, 1.5, size=3), beta=0.1 * rng.normal(size=3))
    op.fixed = {"mean": 0.1 * rng.normal(size=3), "var": rng.uniform(0.5, 1.5, size=3)}


def out_shape(op, shape: tuple) -> tuple:
    """The shape of what `op` makes of a value of `shape`."""
    if op.kind == "reshape":
        return (2, math.prod(shape[1:])) if len(shape) == 4 else (SHAPE if shape[1] == 108 else BIG)
    if op.kind == "linear":
        return (2, 108)
    if op.kind in UNPOOLS:
        return BIG
    if op.kind == "window" or op.stride == 2:
        return SHAPE
    return shape


def generate(seed: int):
    """A program of 3-8 ops, the leaf arrays by name ("x" for the input,
    "<op>.<name>" for a parameter) and the loss weights."""
    rng = np.random.default_rng(seed)
    shapes = [SHAPE]
    prog = []
    for _ in range(rng.integers(3, 9)):
        kind = str(rng.choice(KINDS))
        pool = [v for v, s in enumerate(shapes) if takes(kind, s)]
        while not pool:     # no [2,n] value yet for a linear
            kind = str(rng.choice(KINDS))
            pool = [v for v, s in enumerate(shapes) if takes(kind, s)]
        # half the time the newest value it can take, so chains grow deep
        first = pool[-1] if rng.random() < 0.5 else int(rng.choice(pool))
        op = Op(kind, (first,))
        if kind == "add":
            op.args = (first, int(rng.choice([v for v, s in enumerate(shapes) if s == shapes[first]])))
        elif kind == "linear":
            n = shapes[first][1]
            op.params["w"] = rng.normal(size=(108, n)) * np.sqrt(2.0 / n)
            if rng.random() < 0.5:
                op.params["b"] = 0.1 * rng.normal(size=108)
        elif kind in ("conv2d", "unpool_conv2d"):
            op.params["w"] = kernel(rng, 3 if kind == "conv2d" else int(rng.choice([3, 5])))
            if rng.random() < 0.5:
                op.params["b"] = 0.1 * rng.normal(size=3)
            if kind == "conv2d" and shapes[first] == BIG and rng.random() < 0.5:
                op.stride = 2
        elif kind in ("bn_relu_conv2d", "bn_relu_unpool_conv2d"):
            batchnorm(op, rng)
            op.params["w"] = kernel(rng, 3 if kind == "bn_relu_conv2d" else int(rng.choice([3, 5])))
        elif kind == "window":
            op.params["raw"] = rng.normal(size=(2, 3))
            op.inverse, op.tracked = bool(rng.random() < 0.5), bool(rng.random() < 0.5)
            if not op.tracked:
                # an untracked source, as the glimpses sample the image
                op.args, op.fixed["image"] = (), rng.normal(size=SHAPE)
        prog.append(op)
        shapes.append(out_shape(op, shapes[first]))
    arrays = {"x": rng.normal(size=SHAPE)}
    for i, op in enumerate(prog):
        arrays.update({f"{i}.{name}": a for name, a in op.params.items()})
    # weights of norm about 1 keep the loss near 1, the scale for which
    # gradcheck's error floor sits above the cancellation noise of central
    # differences (a conv bias in front of a train-mode batchnorm has a
    # true gradient of 0, which the differences read as that noise)
    weights = rng.normal(size=shapes[-1])
    return prog, arrays, weights / np.sqrt(weights.size)


def segments(prog):
    """Every run of ops [lo, hi] that a checkpoint can hold: no op after it
    reads a value it makes, except its last."""
    return [(lo, hi) for lo in range(len(prog)) for hi in range(lo, len(prog))
            if not any(lo + 1 <= v <= hi for op in prog[hi + 1:] for v in op.args)]


def sums_in_another_order(prog, lo, hi):
    """True in the case T.checkpoint names: an op output that the segment
    [lo, hi] reads twice and that an op after it reads too."""
    reads = [v for op in prog[lo:hi + 1] for v in op.args]
    after = {v for op in prog[hi + 1:] for v in op.args}
    return any(v >= 1 and reads.count(v) >= 2 and v in after for v in set(reads))


def apply(op, i, ins, leaves):
    """Op `op`, the i-th of its program, on the tensors `ins`."""
    x = ins[0] if ins else T.Tensor(op.fixed["image"])
    if op.kind == "add":
        return T.add(*ins)
    if op.kind == "relu":
        return T.relu(x)
    if op.kind == "sigmoid":
        return T.sigmoid(x)
    if op.kind == "reshape":
        return T.reshape(x, out_shape(op, x.shape))
    if op.kind == "linear":
        return nn.linear(x, nn.LinearParams(leaves[f"{i}.w"], leaves.get(f"{i}.b")))
    # an unpool conv's stride is its unpool factor
    stride = 2 if op.kind in UNPOOLS else op.stride
    if op.kind in ("conv2d", "unpool_conv2d"):
        p = nn.Conv2dParams(leaves[f"{i}.w"], leaves.get(f"{i}.b"), stride, op.kernel // 2)
        return nn.conv2d(x, p) if op.kind == "conv2d" else nn.unpool_conv2d(x, p)
    if op.kind in ("bn_relu_conv2d", "bn_relu_unpool_conv2d"):
        norm = nn.BatchNormParams(leaves[f"{i}.gamma"], leaves[f"{i}.beta"],
                                  T.Tensor(op.fixed["mean"].copy()), T.Tensor(op.fixed["var"].copy()))
        p = nn.Conv2dParams(leaves[f"{i}.w"], None, stride, op.kernel // 2)
        if op.kind == "bn_relu_conv2d":
            return nn.bn_relu_conv2d(x, norm, op.mode, p)
        return nn.bn_relu_unpool_conv2d(x, norm, op.mode, p)
    params = at.constrain_attention(leaves[f"{i}.raw"])
    return (at.st_inverse if op.inverse else at.st)(x, params, 6, 6)


def run(prog, arrays, weights, segment=None):
    """The loss of `prog` on fresh leaves made of `arrays`, and the leaves;
    the ops [lo, hi] of `segment` run as one checkpoint."""
    leaves = {name: T.Tensor(a, requires_grad=True) for name, a in arrays.items()}
    values = {0: leaves["x"]}
    lo, hi = segment or (-1, -1)
    i = 0
    while i < len(prog):
        if i == lo:
            outside = sorted({v for op in prog[lo:hi + 1] for v in op.args if v <= lo})
            inside = [t for name, t in leaves.items() if name != "x" and lo <= int(name.split(".")[0]) <= hi]

            def fn(*ins):
                local = dict(zip(outside, ins))
                for j in range(lo, hi + 1):
                    local[j + 1] = apply(prog[j], j, [local[v] for v in prog[j].args], leaves)
                return local[hi + 1]

            values[hi + 1] = T.checkpoint(fn, [values[v] for v in outside], inside)
            i = hi + 1
            continue
        values[i + 1] = apply(prog[i], i, [values[v] for v in prog[i].args], leaves)
        i += 1
    return sum_all(mul(values[len(prog)], T.Tensor(weights))), leaves


def gradients(prog, arrays, weights, segment=None):
    """The loss bytes and every leaf's gradient, None for a leaf that got
    none, after one backward on a fresh tape."""
    with T.Graph():
        loss, leaves = run(prog, arrays, weights, segment)
        T.backward(loss)
    return loss.data.tobytes(), {name: t.grad for name, t in leaves.items()}


def checkpoint_segment(seed: int, prog):
    """The segment of `prog` that seed `seed` checkpoints, and the rng
    that picks the coordinates to difference."""
    rng = np.random.default_rng(10_000 + seed)
    candidates = segments(prog)
    return candidates[rng.integers(len(candidates))], rng


def check(seed: int) -> bool:
    """Hold the program of `seed` to both oracles; True when its checkpoint
    is the case that sums in another order."""
    prog, arrays, weights = generate(seed)
    segment, rng = checkpoint_segment(seed, prog)
    where = f"seed {seed}: {' '.join(map(str, prog))}, checkpoint ops {segment}"

    loss, grads = gradients(prog, arrays, weights)
    no_graph = run(prog, arrays, weights)[0].data.tobytes()
    assert no_graph == loss, f"{where}: the loss with no graph differs from the tape's"

    # oracle 1: central differences
    for name, a in arrays.items():
        grad = grads[name] if grads[name] is not None else np.zeros_like(a)
        for flat in rng.choice(a.size, size=min(a.size, 4 if name == "x" else 2), replace=False):
            idx = tuple(int(i) for i in np.unravel_index(flat, a.shape))

            def f(v, name=name):
                return float(run(prog, {**arrays, name: v}, weights)[0].data[0])

            numeric, err = central_diff_refined(f, a, idx, float(grad[idx]), FD_TOL)
            assert err <= FD_TOL, (f"{where}: d loss / d {name}{idx} is {grad[idx]:.10g}, "
                                   f"central differences give {numeric:.10g}")

    # oracle 2: the checkpointed program
    ck_loss, ck_grads = gradients(prog, arrays, weights, segment)
    assert ck_loss == loss, f"{where}: the checkpointed loss differs"
    reordered = sums_in_another_order(prog, *segment)
    for name, g in grads.items():
        got = ck_grads[name]
        assert (got is None) == (g is None), f"{where}: {name} has a gradient on one tape only"
        if g is None:
            continue
        if reordered:
            np.testing.assert_allclose(got, g, rtol=1e-14, atol=0, err_msg=f"{where}: {name}")
        else:
            assert got.tobytes() == g.tobytes(), f"{where}: the gradient of {name} differs"
    return reordered


# seeds that between them run every op in every variant; 98 sums in
# another order
TIER1_SEEDS = (0, 1, 39, 89, 98, 187, 306, 1484)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_program_agrees_with_both_oracles(seed):
    check(seed)


def test_tier1_seeds_cover_every_op():
    progs = {seed: generate(seed)[0] for seed in TIER1_SEEDS}
    ops = [op for prog in progs.values() for op in prog]
    assert {op.kind for op in ops} == set(KINDS)
    assert any(op.kind == "add" and op.args[0] == op.args[1] for op in ops)
    for kind in ("bn_relu_conv2d", "bn_relu_unpool_conv2d"):
        assert {op.mode for op in ops if op.kind == kind} == {"train", "infer"}
    assert {op.kernel for op in ops if op.kind in UNPOOLS} == {3, 5}
    assert any(op.kind == "conv2d" and op.stride == 2 for op in ops)
    assert {(op.inverse, op.tracked) for op in ops if op.kind == "window"} == {
        (False, False), (False, True), (True, False), (True, True)}
    assert any(sums_in_another_order(prog, *checkpoint_segment(seed, prog)[0])
               for seed, prog in progs.items())


@pytest.mark.slow
def test_300_programs_agree_with_both_oracles():
    reordered = sum(check(seed) for seed in range(400, 700))
    assert reordered > 0
