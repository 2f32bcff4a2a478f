"""Neural network layers and the loss on top of the autodiff tensors.

Every layer takes batched input only: spatial layers, batchnorm included,
take ``[B,C,H,W]`` and vector layers take ``[B,n]``; a single image is a
batch of one. Infer-mode batchnorm is one per-channel scale and shift.
Convolution is cross-correlation (no kernel flip), computed as im2col and
one matmul per block: a block is a group of whole images when one image's
columns fit :data:`_BLOCK_BYTES`, otherwise a run of one image's output
rows, so the columns of the whole batch never exist at once. When it
records, :func:`conv2d` keeps its input by reference, and backward reads
each block's window again to rebuild its columns. The decoder's unpool
then stride-1 convolution is one op, :func:`unpool_conv2d`: a transposed
convolution that never builds the unpooled zeros, equal to
``conv2d(unpool(x, k), p)``, which stays as its reference. Its forward
computes the taps one kernel row at a time, so neither all the taps nor
all the flipped weights exist at once.

Both ops gather with :func:`_window` then :func:`_im2col` and scatter
with :func:`_scatter_taps`, under the one origin rule that
:func:`_scatter_taps` states, so no padding is a zero canvas around an
input or a gradient, and no result is cropped out of a larger array.

The temporaries a convolution's forward holds within one call come from
:func:`_scratch`: a block's zero-bordered window, its BN-ReLU rows and
its im2col columns, and an unpool's BN-ReLU input, flipped weights row,
taps row and output-shaped canvas. With no graph active these are
per-thread buffers that are reused by the next call, so a steady
inference pass faults in no fresh pages for them. They only grow: each
slot keeps the size of the largest call this thread has made, a conv
block's at most about :data:`_BLOCK_BYTES` and an unpool's its whole
batch's canvas, until a forward under a graph drops them all; under a
graph they are fresh memory, because there the tape sets the peak. Each
use writes every element it reads. An op's output, a tape closure's
array and a gradient never come from the workspace, and backward never
uses it. A bias add over small planes takes its broadcast bias values
from the workspace too (:func:`_add_bias`), since numpy would otherwise
buffer them on top of it.

A conv stack runs as pre-activation units: :func:`bn_relu_conv2d` and
:func:`bn_relu_unpool_conv2d` are ``conv(relu(batchnorm(x)))`` as one
op, byte for byte. Each convolution is a plan, a forward and a backward
that take the input array and the same optional BN-ReLU as arguments, so
the fused op applies batchnorm's per-channel scale and shift and the ReLU
to each block's rows as it reads its window, in forward and again in
backward, and keeps only what batchnorm's backward reads (x-hat in train
mode, the input in infer mode). Batchnorm's statistics and gradients live
in :func:`_batchnorm_forward`, which :func:`batchnorm` shares; its
gradients are written over the output gradient they are handed.

A stride, padding or unpool factor that is not an integer in range (a
bool is not one) raises :class:`~racdnn.errors.ArgumentError`; weights
of the wrong rank, and a bias or batchnorm vector of the wrong length,
raise :class:`~racdnn.errors.ShapeError`. The loss is one binary
cross-entropy, :func:`bce_with_logits`, computed from raw logits, so it
stays finite for logits far outside the sigmoid's useful range.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import ArgumentError, BatchError, ShapeError
from .tensor import Tensor, needs_grad, record, _active_graph, _recomputing, _sigmoid

# batchnorm: weight of the old running statistic, and the variance floor
BN_MOMENTUM = 0.9
BN_EPSILON = 1e-5

# conv2d works in blocks whose im2col columns take at most this many bytes
_BLOCK_BYTES = 4 * 1024 * 1024


@dataclass
class Conv2dParams:
    weights: Tensor          # [C_out, C_in, k_h, k_w]
    bias: Optional[Tensor]   # [C_out]
    stride: int = 1
    padding: int = 0


@dataclass
class BatchNormParams:
    gamma: Tensor            # [C]
    beta: Tensor             # [C]
    running_mean: Tensor     # [C], updated in train mode
    running_var: Tensor      # [C]


@dataclass
class LinearParams:
    weights: Tensor          # [out, in]
    bias: Optional[Tensor]   # [out]


def _check_4d(x: Tensor, what: str) -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError(f"{what} expects [B,C,H,W], got {x.shape}")
    return x.data


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _require_int(value, lowest: int, what: str) -> None:
    """Reject `value` unless it is an integer >= `lowest`; a bool is not one."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < lowest:
        raise ArgumentError(f"{what} must be an integer >= {lowest}, got {value!r}")


def _check_vector(t: Optional[Tensor], n: int, what: str) -> None:
    """Reject a parameter vector that is not [n]; None passes."""
    if t is not None and t.shape != (n,):
        raise ShapeError(f"{what} has shape {t.shape}, expected ({n},)")


def _kernel_shape(p: Conv2dParams, c_in: int, what: str) -> tuple:
    """The [C_out, C_in, kh, kw] shape of `p`'s weights, checked against an
    input of `c_in` channels, and against the bias."""
    if p.weights.ndim != 4:
        raise ShapeError(f"{what} weights must be [C_out,C_in,kh,kw], got {p.weights.shape}")
    if p.weights.shape[1] != c_in:
        raise ShapeError(f"input has {c_in} channels, kernel expects {p.weights.shape[1]}")
    _check_vector(p.bias, p.weights.shape[0], f"{what} bias")
    return p.weights.shape


# this thread's forward scratch buffers by slot, in ``.bufs``
_workspace = threading.local()


def _scratch(slot: str, shape: tuple) -> np.ndarray:
    """An uninitialized float64 array of `shape` for a temporary that a
    conv plan's forward holds within one call. With no graph active it is
    a view of this thread's buffer `slot`, grown to fit and kept for the
    next call, so a steady pass faults in no fresh pages; the next request
    for `slot` overwrites it. The buffer stays as large as the largest
    request the thread has made. While a graph is active it is fresh
    memory, because there the tape, not the temporaries, sets the peak,
    and the thread's buffers are dropped."""
    if _active_graph() is not None:
        _workspace.__dict__.pop("bufs", None)
        return np.empty(shape)
    bufs = _workspace.__dict__.setdefault("bufs", {})
    n = math.prod(shape)
    if slot not in bufs or bufs[slot].size < n:
        bufs[slot] = None    # the old buffer goes before the larger one comes
        bufs[slot] = np.empty(n)
    return bufs[slot][:n].reshape(shape)


def _im2col(x: np.ndarray, kh: int, kw: int, s: int, out_hw: tuple, alloc=None,
            side_by_side: bool = False) -> np.ndarray:
    """Columns [B, C*kh*kw, h*w] of the kh x kw windows of `x` [B,C,H,W]
    whose top-left corners sit at row ``s*y`` and column ``s*x`` for (y, x)
    on the `out_hw` lattice: im2col at stride `s`, the gather
    that :func:`_scatter_taps` undoes. A read-only view of `x` when no copy
    is needed (1x1 windows at stride 1), otherwise copied into a fresh
    array, or into ``alloc("cols", shape)`` when forward passes
    :func:`_scratch` as `alloc`. With `side_by_side`, every image's columns
    are laid side by side in one fresh [C*kh*kw, B*h*w] array, so that one
    matmul sums a product over the batch."""
    b, c, rows, width = x.shape
    h, w = out_hw
    if s * (h - 1) + kh > rows or s * (w - 1) + kw > width:
        raise ShapeError(f"{kh}x{kw} windows at stride {s} on a {h}x{w} lattice leave {x.shape}")
    sb, sc, sy, sx = x.strides
    # [B,C,kh,kw,h,w], a read-only view
    windows = np.lib.stride_tricks.as_strided(x, (b, c, kh, kw, h, w),
                                              (sb, sc, sy, sx, s * sy, s * sx), writeable=False)
    if side_by_side:
        cols = np.empty((c * kh * kw, b * h * w))
        np.copyto(cols.reshape(c, kh, kw, b, h, w), windows.transpose(1, 2, 3, 0, 4, 5))
        return cols
    if kh == kw == s == 1:
        return windows.reshape(b, c, h * w)
    shape = (b, c * kh * kw, h * w)
    cols = np.empty(shape) if alloc is None else alloc("cols", shape)
    np.copyto(cols.reshape(windows.shape), windows)
    return cols


def _lattice(origin: int, s: int, n: int, size: int) -> tuple:
    """The (source, target) slices of the points ``origin + s*t`` for t in
    ``0:n`` that lie in ``0:size``; both empty when none does."""
    t0 = max(0, -(origin // s))
    t1 = max(t0, min(n, (size - 1 - origin) // s + 1))
    return slice(t0, t1), slice(origin + s * t0, origin + s * t1, s)


def _scatter_taps(taps: np.ndarray, s: int, out: np.ndarray, top: int, left: int) -> None:
    """Add every tap of `taps` [B,C,kh,kw,h,w] onto `out` [B,C,H,W] in
    place, tap (i, j) of source (y, x) at row ``i + s*y - top`` and column
    ``j + s*x - left``, and drop the taps that land outside `out`: col2im
    at stride `s`. This is the origin rule of both convolutions. Its
    adjoint, the gather, is :func:`_im2col` at stride `s` of the window
    ``_window(out, ..., -top, ..., -left, ...)``, which reads zero outside
    `out`."""
    kh, kw, h, w = taps.shape[2:]
    cols = [_lattice(j - left, s, w, out.shape[3]) for j in range(kw)]
    for i in range(kh):
        src_y, dst_y = _lattice(i - top, s, h, out.shape[2])
        for j, (src_x, dst_x) in enumerate(cols):
            out[:, :, dst_y, dst_x] += taps[:, :, i, j, src_y, src_x]


def _blocks(b: int, ho: int, row_bytes: int) -> list:
    """The (images, rows) slices that :func:`conv2d` works in, for a batch
    of `b` images of `ho` output rows whose columns take `row_bytes` per
    output row: groups of whole images when one image's columns fit
    :data:`_BLOCK_BYTES`, otherwise runs of one image's output rows.
    Batchnorm's backward forms its input gradient in the same chunks of
    its input rows."""
    if row_bytes * ho <= _BLOCK_BYTES:
        n = _BLOCK_BYTES // (row_bytes * ho)
        return [(slice(i, min(i + n, b)), slice(0, ho)) for i in range(0, b, n)]
    n = max(1, _BLOCK_BYTES // row_bytes)
    return [(slice(i, i + 1), slice(y, min(y + n, ho))) for i in range(b) for y in range(0, ho, n)]


def _bn_relu(s: np.ndarray, scale: np.ndarray, shift: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """``max(s*scale + shift, 0)`` with per-channel `scale` and `shift`
    [C,1,1], in the float ops of ``relu(batchnorm(x))``: the batchnorm
    output ``s*scale + shift`` that :func:`_batchnorm_forward` describes,
    then the ReLU. Written into `out` when given, else into a fresh array."""
    out = np.multiply(s, scale, out=out)
    out += shift
    return np.maximum(out, 0.0, out=out)


def _add_bias(out: np.ndarray, bias: np.ndarray) -> None:
    """``out += bias[None, :, None, None]`` on a contiguous `out` [B,C,H,W]
    with no iterator buffer. A broadcast add over planes of fewer than
    ``np.getbufsize()`` elements takes a 64 KiB buffer on top of the
    workspace, and one add per channel is much slower there. So a run of
    whole channels, at most that size, copies its bias values into the
    workspace and adds them to each image's run, a same-shape contiguous
    add; planes of more than half that size take one scalar add per
    channel."""
    b, c = out.shape[:2]
    out3 = out.reshape(b, c, -1)
    g = np.getbufsize() // out3.shape[2]     # channels per run
    if g <= 1:
        for ch, v in enumerate(bias):
            out3[:, ch] += v
        return
    run = _scratch("bias", (min(g, c), out3.shape[2]))
    for c0 in range(0, c, g):
        part = run[:min(g, c - c0)]
        np.copyto(part, bias[c0:c0 + g, None])
        for img in out3:
            img[c0:c0 + len(part)] += part


def _window(data: np.ndarray, imgs: slice, y0: int, y1: int, x0: int, x1: int,
            relu: Optional[tuple] = None, alloc=None,
            mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows ``y0:y1`` and columns ``x0:x1`` of images `imgs` of `data`
    [B,C,H,W], read as zero wherever the window lies outside `data`. With
    `relu` a ``(scale, shift)`` pair, the window holds ``_bn_relu(data,
    scale, shift)`` rather than `data`, and a bool `mask` of `data`'s shape,
    when given, takes that output's ``> 0`` where the window lies inside
    `data`. A view of `data` when the window
    lies inside it and there is no `relu`; otherwise a fresh array, and
    outside `data` one buffer whose zero border is written around the part
    copied in. Forward passes :func:`_scratch` as `alloc`, and the BN-ReLU
    part and the buffer are then ``alloc("rows", shape)`` and
    ``alloc("padded", shape)``, which hold stale values until written."""
    # window row t is data row y0 + t: the lattice at stride 1
    win_y, dat_y = _lattice(y0, 1, y1 - y0, data.shape[2])
    win_x, dat_x = _lattice(x0, 1, x1 - x0, data.shape[3])
    part = data[imgs, :, dat_y, dat_x]
    if relu is not None:
        # built whole, then copied: ufuncs that write into the strided
        # inside of the buffer are slower
        part = _bn_relu(part, *relu, out=None if alloc is None else alloc("rows", part.shape))
        if mask is not None:
            np.greater(part, 0.0, out=mask[imgs, :, dat_y, dat_x])
    shape = part.shape[:2] + (y1 - y0, x1 - x0)
    if part.shape == shape:
        return part
    buf = np.empty(shape) if alloc is None else alloc("padded", shape)
    buf[:, :, :win_y.start] = 0.0
    buf[:, :, win_y.stop:] = 0.0
    buf[:, :, win_y, :win_x.start] = 0.0
    buf[:, :, win_y, win_x.stop:] = 0.0
    buf[:, :, win_y, win_x] = part
    return buf


# A conv plan checks one convolution's arguments against its input's shape
# and returns the (forward, backward) pair that computes it:
#   forward(data, relu=None) -> the output for the input `data`, or, with
#       `relu` a (scale, shift) pair, for the input _bn_relu(data, *relu);
#   backward(og, data, track_x, relu=None) -> the gradients in the input,
#       the weights and the bias, with None for the input unless `track_x`;
#       `data` and `relu` are what forward took, and with `relu` the input
#       gradient is the one in the ReLU's input: ReLU's mask applied.
# Neither closes over an input array, so the op that records a plan decides
# what its tape keeps.


def _conv2d_plan(shape: tuple, p: Conv2dParams) -> tuple:
    """The plan of :func:`conv2d` for an input of `shape` [B,C,H,W]."""
    _require_int(p.stride, 1, "conv2d stride")
    _require_int(p.padding, 0, "conv2d padding")
    b, c_in, h, w = shape
    c_out, _, kh, kw = _kernel_shape(p, c_in, "conv2d")
    s, pad = p.stride, p.padding
    ho = conv_output_size(h, kh, s, pad)
    wo = conv_output_size(w, kw, s, pad)
    if ho < 1 or wo < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h}x{w} (pad {pad})")
    w2 = p.weights.data.reshape(c_out, c_in * kh * kw)
    blocks = _blocks(b, ho, c_in * kh * kw * wo * 8)    # float64 columns

    def window(data, imgs, rows, relu=None, alloc=None, mask=None):
        """The padded input that output `rows` of images `imgs` read."""
        return _window(data, imgs, s * rows.start - pad, s * (rows.stop - 1) + kh - pad,
                       -pad, w + pad, relu, alloc, mask)

    def forward(data, relu=None):
        out = np.empty((b, c_out, ho, wo))
        out3 = out.reshape(b, c_out, ho * wo)
        for imgs, rows in blocks:
            padded = window(data, imgs, rows, relu, _scratch)
            cols = _im2col(padded, kh, kw, s, (rows.stop - rows.start, wo), _scratch)
            np.matmul(w2, cols, out=out3[imgs, :, rows.start * wo:rows.stop * wo])
            del padded, cols    # before the next block builds its own
        if p.bias is not None:
            _add_bias(out, p.bias.data)
        return out

    def backward(og, data, track_x, relu=None):
        og3 = og.reshape(b, c_out, ho * wo)
        d_w = None
        d_x = np.zeros(shape) if track_x else None
        # the ReLU's "> 0" as bools, 1/8 of its output, which each block
        # rebuilds only for the rows it reads; rows no block reads keep a
        # zero gradient whatever their mask
        mask = np.zeros(shape, dtype=bool) if track_x and relu is not None else None
        for imgs, rows in blocks:
            n = rows.stop - rows.start
            og_block = og3[imgs, :, rows.start * wo:rows.stop * wo]
            cols = _im2col(window(data, imgs, rows, relu, mask=mask), kh, kw, s, (n, wo))
            # batched matmul, not einsum, which does not reach BLAS here
            part = np.matmul(og_block, cols.transpose(0, 2, 1))
            # one image needs no sum, which would copy it; several are summed
            # at once, so d_w never keeps a whole [n, C_out, K] product alive
            part = part.sum(axis=0) if len(part) > 1 else part[0]
            if d_w is None:
                d_w = part
            else:
                d_w += part
            if track_x:
                # for 1x1 kernels at stride 1 the columns are a read-only view of the input
                d_cols = np.matmul(w2.T, og_block, out=cols if cols.flags.writeable else None)
                _scatter_taps(d_cols.reshape(-1, c_in, kh, kw, n, wo), s, d_x[imgs],
                              pad - s * rows.start, pad)
                del d_cols
            del cols, part      # before the next block builds its own
        if mask is not None:
            # relu's backward as T.relu computes it, in place
            np.multiply(d_x, mask, out=d_x)
        d_b = og3.sum(axis=(0, 2)) if p.bias is not None else None
        return d_x, d_w.reshape(p.weights.shape), d_b

    return forward, backward


def _record_conv(x: Tensor, p: Conv2dParams, plan: tuple) -> Tensor:
    """Run a conv plan on `x`; the tape keeps the input array by reference."""
    forward, backward = plan
    data = x.data
    track_x = needs_grad(x)

    def bwd(og):
        return backward(og, data, track_x)

    return record(forward(data), [x, p.weights, p.bias], bwd)


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Strided cross-correlation with symmetric zero padding.

    Works in blocks whose im2col columns take at most :data:`_BLOCK_BYTES`:
    groups of whole images when one image's columns fit, otherwise runs of
    one image's output rows. Each block pads only the input rows it reads
    and matmuls its columns straight into its slice of the output, so no
    padded copy of the whole input and no columns of the whole batch are
    built. A conv that fits the budget is one block. With no graph active,
    a block's padded rows and columns live in the thread's workspace
    (:func:`_scratch`).

    When the op records, the tape keeps a reference to the input array,
    which lives anyway (the op before keeps it, or the caller holds it), so
    the op adds no activation of its own. Backward pads each block's rows
    again and rebuilds its columns for the weight gradient, summed over
    blocks, then reuses that buffer for the input gradient's columns,
    whose taps add straight into the input gradient, those on the padding
    dropped. An untracked input gets no gradient.
    """
    data = _check_4d(x, "conv2d")
    return _record_conv(x, p, _conv2d_plan(data.shape, p))


def unpool(x: Tensor, k: int) -> Tensor:
    """Upsize by k: each value lands in the top-left corner of its k x k block."""
    _require_int(k, 1, "unpool factor")
    data = _check_4d(x, "unpool")
    b, c, h, w = data.shape
    out = np.zeros((b, c, h * k, w * k))
    out[:, :, ::k, ::k] = data

    def bwd(og):
        return (og[:, :, ::k, ::k].copy(),)

    return record(out, [x], bwd)


def _flipped(weights: np.ndarray) -> np.ndarray:
    """The [C_out*kh*kw, C_in] copy ``a[(o,i,j), c] = weights[o, c, kh-1-i, kw-1-j]``
    of `weights` [C_out, C_in, kh, kw]."""
    c_out, c_in, kh, kw = weights.shape
    return weights[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(c_out * kh * kw, c_in)


def _unpool_conv2d_plan(shape: tuple, p: Conv2dParams, k: int) -> tuple:
    """The plan of :func:`unpool_conv2d` for an input of `shape` [B,C,H,W]."""
    _require_int(k, 1, "unpool factor")
    if isinstance(p.stride, bool) or p.stride != 1:
        raise ArgumentError(f"unpool_conv2d needs conv stride 1, got {p.stride!r}")
    _require_int(p.padding, 0, "unpool_conv2d padding")
    b, c_in, h, w = shape
    c_out, _, kh, kw = _kernel_shape(p, c_in, "unpool_conv2d")
    pad = p.padding
    ho = conv_output_size(h * k, kh, 1, pad)
    wo = conv_output_size(w * k, kw, 1, pad)
    if ho < 1 or wo < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h * k}x{w * k} (pad {pad})")

    # flipped tap (i, j) of input (y, x) lands at output row i + k*y - top
    # and column j + k*x - left
    top, left = kh - 1 - pad, kw - 1 - pad
    # the plan keeps the weights array; each forward flips one kernel row
    # at a time into scratch, and each backward flips them all again
    wd = p.weights.data

    def forward(data, relu=None):
        if relu is not None:
            data = _bn_relu(data, *relu, out=_scratch("rows", shape))
        x3 = data.reshape(b, c_in, h * w)
        canvas = _scratch("padded", (b, c_out, ho, wo))
        canvas.fill(0.0)
        # one kernel row of taps at a time, so neither all the taps nor all
        # the flipped weights are built at once
        w_i = _scratch("weights", (c_out, kw, c_in))
        taps = _scratch("cols", (b, c_out * kw, h * w))
        for i in range(kh):
            # rows (o, j) of _flipped(wd)'s kernel row i
            np.copyto(w_i, wd[:, :, kh - 1 - i, ::-1].transpose(0, 2, 1))
            np.matmul(w_i.reshape(c_out * kw, c_in), x3, out=taps)
            _scatter_taps(taps.reshape(b, c_out, 1, kw, h, w), k, canvas, top - i, left)
        out = canvas.copy()
        if p.bias is not None:
            _add_bias(out, p.bias.data)
        return out

    def backward(og, data, track_x, relu=None):
        if relu is not None:
            # the weight gradient reads the whole input, so it is rebuilt whole
            data = _bn_relu(data, *relu)
        window = _window(og, slice(None), -top, k * (h - 1) + kh - top,
                         -left, k * (w - 1) + kw - left)
        # [C_out*kh*kw, B*h*w]: the weight gradient is one matmul over the
        # batch, so no second [C_out*kh*kw, C_in] array is built to sum it
        cols = _im2col(window, kh, kw, k, (h, w), side_by_side=True)
        d_x = None
        if track_x:
            per_image = cols.reshape(-1, b, h * w).transpose(1, 0, 2)
            d_x = np.matmul(_flipped(wd).T, per_image).reshape(shape)
            if relu is not None:
                d_x *= data > 0.0       # relu's backward as T.relu computes it
        x2 = data.reshape(b, c_in, h * w).transpose(1, 0, 2).reshape(c_in, b * h * w)
        d_a = np.matmul(cols, x2.T)
        d_w = d_a.reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)[:, :, ::-1, ::-1]
        d_b = og.sum(axis=(0, 2, 3)) if p.bias is not None else None
        return d_x, d_w, d_b

    return forward, backward


def unpool_conv2d(x: Tensor, p: Conv2dParams, k: int) -> Tensor:
    """``conv2d(unpool(x, k), p)`` at stride 1, without the unpooled zeros.

    A convolution over a zero-inserted input is a transposed convolution:
    each input value, times the flipped kernel, is added onto the output at
    stride `k`. Forward is, per kernel row, one matmul at input resolution
    and a tap scatter; backward gathers the output gradient's windows at
    stride `k`. Only the order of the float64 sums differs from the
    composition.
    """
    data = _check_4d(x, "unpool_conv2d")
    return _record_conv(x, p, _unpool_conv2d_plan(data.shape, p, k))


def _bn_train_grads(og, xhat, gamma, istd):
    """Train-mode batchnorm's gradients in x, gamma and beta, from x-hat.
    The gradient in x is written over `og`."""
    b, c, h, w = og.shape
    n = og.size // c
    d_gamma = np.einsum("ijkl,ijkl->j", og, xhat)
    d_beta = og.sum(axis=(0, 2, 3))
    # gamma is per channel, so it comes out of both mean terms:
    # d_x = (og - d_beta/n - xhat*d_gamma/n) * gamma*istd, whose x-hat term
    # is formed one block of rows at a time
    for imgs, rows in _blocks(b, h, c * w * 8):
        d_x = og[imgs, :, rows]
        d_x += xhat[imgs, :, rows] * (-d_gamma / n)[:, None, None]
        d_x -= (d_beta / n)[:, None, None]
        d_x *= gamma * istd
    return og, d_gamma, d_beta


def _bn_infer_grads(og, x, rmean, istd, scale):
    """Infer-mode batchnorm's gradients in x, gamma and beta, from x. The
    gradient in x is written over `og`."""
    xhat = x - rmean
    xhat *= istd
    xhat *= og
    d_gamma, d_beta = xhat.sum(axis=(0, 2, 3)), og.sum(axis=(0, 2, 3))
    og *= scale
    return og, d_gamma, d_beta


def _batchnorm_forward(x: Tensor, p: BatchNormParams, mode: str) -> tuple:
    """Check a batchnorm of `x` and compute it up to ``(s, scale, shift,
    grads)``: its output is ``s*scale + shift`` per channel, and
    ``grads(og, s)`` returns the gradients in x, gamma and beta. In train
    mode `s` is x-hat, the input normalized by the batch statistics, and
    the running averages take those statistics, except in a checkpoint's
    rerun (``tensor._recomputing``); in infer mode `s` is the
    input array and the running statistics fold into `scale` and `shift`.
    `grads` keeps only [C] vectors, so what keeps `s` decides what a tape
    keeps."""
    if mode not in ("train", "infer"):
        raise ArgumentError(f"unknown batchnorm mode {mode!r}")
    data = _check_4d(x, "batchnorm")
    c = data.shape[1]
    for name in ("gamma", "beta", "running_mean", "running_var"):
        _check_vector(getattr(p, name), c, f"batchnorm {name}")
    gamma = p.gamma.data[:, None, None]
    beta = p.beta.data[:, None, None]

    if mode == "train":
        if data.shape[0] < 2:
            raise BatchError("train-mode batchnorm needs batch size >= 2")
        axes = (0, 2, 3)
        mean = data.mean(axis=axes)
        xhat = data - mean[:, None, None]
        var = (xhat * xhat).sum(axis=axes) / (data.size // c)  # data.var, from the centred input
        istd = 1.0 / np.sqrt(var[:, None, None] + BN_EPSILON)
        xhat *= istd
        if not _recomputing():    # a checkpoint's rerun: the first run updated them
            p.running_mean.data = BN_MOMENTUM * p.running_mean.data + (1 - BN_MOMENTUM) * mean
            p.running_var.data = BN_MOMENTUM * p.running_var.data + (1 - BN_MOMENTUM) * var
        return xhat, gamma, beta, partial(_bn_train_grads, gamma=gamma, istd=istd)

    rmean = p.running_mean.data[:, None, None]
    istd = 1.0 / np.sqrt(p.running_var.data[:, None, None] + BN_EPSILON)
    scale = gamma * istd
    return data, scale, beta - rmean * scale, partial(_bn_infer_grads, rmean=rmean, istd=istd,
                                                      scale=scale)


def batchnorm(x: Tensor, p: BatchNormParams, mode: str = "train") -> Tensor:
    """Per-channel normalization of [B,C,H,W]. Train mode normalizes with
    the batch statistics and updates the running averages; infer mode is
    one per-channel scale and shift folded from the running statistics.
    The tape keeps x-hat in train mode and the input in infer mode."""
    s, scale, shift, grads = _batchnorm_forward(x, p, mode)
    out = s * scale
    out += shift

    def bwd(og):
        return grads(og, s)

    return record(out, [x, p.gamma, p.beta], bwd)


def _record_bn_relu_conv(x: Tensor, norm: BatchNormParams, mode: str, p: Conv2dParams,
                         plan: tuple) -> Tensor:
    """Run a conv plan on ``relu(batchnorm(x, norm, mode))`` as one op."""
    forward, backward = plan
    s, scale, shift, bn_grads = _batchnorm_forward(x, norm, mode)
    track_z = needs_grad(x) or needs_grad(norm.gamma) or needs_grad(norm.beta)

    def bwd(og):
        d_y, d_w, d_b = backward(og, s, track_z, (scale, shift))
        if d_y is None:
            return None, None, None, d_w, d_b
        return (*bn_grads(d_y, s), d_w, d_b)

    return record(partial(forward, s, (scale, shift)),
                  [x, norm.gamma, norm.beta, p.weights, p.bias], bwd)


def bn_relu_conv2d(x: Tensor, norm: BatchNormParams, mode: str, p: Conv2dParams) -> Tensor:
    """``conv2d(relu(batchnorm(x, norm, mode)), p)`` as one op, byte for
    byte: the pre-activation unit of a conv stack.

    The ReLU output z never lives whole: each conv block applies
    batchnorm's per-channel scale and shift and the ReLU to the rows it
    reads as it pads them, in forward and, with the same float ops, in
    backward. The tape keeps one activation, what batchnorm's backward
    reads: x-hat in train mode, the input in infer mode. Backward keeps
    the ReLU's mask as bools while it runs the conv's backward block by
    block, applies it to the input gradient, then runs batchnorm's
    backward over that gradient in place. Train mode updates the running
    statistics once, in forward.
    """
    data = _check_4d(x, "bn_relu_conv2d")
    return _record_bn_relu_conv(x, norm, mode, p, _conv2d_plan(data.shape, p))


def bn_relu_unpool_conv2d(x: Tensor, norm: BatchNormParams, mode: str, p: Conv2dParams,
                          k: int) -> Tensor:
    """``unpool_conv2d(relu(batchnorm(x, norm, mode)), p, k)`` as one op,
    byte for byte; the tape keeps what :func:`bn_relu_conv2d`'s keeps.
    Forward builds the ReLU output whole for its per-row matmuls, and
    backward for its weight gradient, then drops it."""
    data = _check_4d(x, "bn_relu_unpool_conv2d")
    return _record_bn_relu_conv(x, norm, mode, p, _unpool_conv2d_plan(data.shape, p, k))


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """Affine map x @ weights.T + bias for a batch of vectors [B,n]."""
    if x.ndim != 2:
        raise ShapeError(f"linear expects a batch of vectors [B,n], got {x.shape}")
    if p.weights.ndim != 2:
        raise ShapeError(f"linear weights must be [out,in], got {p.weights.shape}")
    in_dim = p.weights.shape[1]
    if x.shape[1] != in_dim:
        raise ShapeError(f"input has {x.shape[1]} features, weights expect {in_dim}")
    _check_vector(p.bias, p.weights.shape[0], "linear bias")
    w = p.weights.data
    x_data = x.data
    out = x_data @ w.T
    if p.bias is not None:
        out = out + p.bias.data[None]

    def bwd(og):
        d_b = og.sum(axis=0) if p.bias is not None else None
        return og @ w, og.T @ x_data, d_b

    return record(out, [x, p.weights, p.bias], bwd)


def bce_with_logits(logits: Tensor, target) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against `target`,
    computed from the raw logits; finite for any logit magnitude."""
    g = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if logits.shape != g.shape:
        raise ShapeError(f"prediction {logits.shape} vs target {g.shape}")
    r = logits.data
    softplus_r = np.maximum(r, 0.0) + np.log1p(np.exp(-np.abs(r)))
    loss = (g * (softplus_r - r) + (1.0 - g) * softplus_r).mean()
    n = logits.size

    def bwd(og):
        return (og.reshape(-1)[0] * (_sigmoid(r) - g) / n,)

    return record(np.array([loss]), [logits], bwd)
