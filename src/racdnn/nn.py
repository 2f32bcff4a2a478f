"""Neural network layers and the loss on top of the autodiff tensors.

Every layer takes batched input only: spatial layers, batchnorm included,
take ``[B,C,H,W]`` and vector layers take ``[B,n]``; a single image is a
batch of one. Infer-mode batchnorm is one per-channel scale and shift.
Both convolutions run one blocked plan, :func:`_conv_plan`: its gather
(:func:`_window`, :func:`_im2col`, a matmul) and its scatter (a matmul,
:func:`_scatter_taps`) place every tap by one origin rule, so no padding
is a zero canvas around an input or a gradient. :func:`conv2d`, a
cross-correlation, runs it forwards. The decoder's unpool then stride-1
convolution is :func:`unpool_conv2d`, a transposed convolution that runs
it backwards: its weights are stored as they scatter, and it never builds
the unpooled zeros; ``conv2d(unpool(x, k), p)`` stays as its reference.
The temporaries of a convolution's forward come from :func:`_scratch`.

A conv stack runs as pre-activation units, :func:`bn_relu_conv2d` and
:func:`bn_relu_unpool_conv2d`. Batchnorm's statistics and gradients live
in :func:`_batchnorm_forward`, which :func:`batchnorm` shares. All four
conv ops record through :func:`_record_conv`, which records the output
as a function (``tensor.record``), so a checkpoint's rerun computes no
conv output that nothing reads.

A spatial layer's input or parameter that is not a Tensor, and a
stride, padding or unpool factor that is not an integer in range (a bool
is not one), raise :class:`~racdnn.errors.ArgumentError`; weights of the
wrong rank or with a zero-size axis, and a bias or batchnorm vector of
the wrong length, raise :class:`~racdnn.errors.ShapeError`, and an
infer-mode running variance that is not >= 0 raises
:class:`~racdnn.errors.NumericError`. The loss is one binary cross-entropy,
:func:`bce_with_logits`, computed from raw logits, so it stays finite for
logits far outside the sigmoid's useful range.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import ArgumentError, BatchError, NumericError, ShapeError
from .tensor import Tensor, needs_grad, record, _active_graph, _check_tensor, _recomputing, _sigmoid

# batchnorm: weight of the old running statistic, and the variance floor
BN_MOMENTUM = 0.9
BN_EPSILON = 1e-5

# a conv plan works in blocks whose im2col columns take at most this many bytes
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
    _check_tensor(x, f"{what} input")
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
    """Reject a parameter vector that is not a Tensor of shape [n]; None passes."""
    if t is None:
        return
    _check_tensor(t, what)
    if t.shape != (n,):
        raise ShapeError(f"{what} has shape {t.shape}, expected ({n},)")


# this thread's forward scratch buffers by slot, in ``.bufs``
_workspace = threading.local()


def _scratch(slot: str, shape: tuple) -> np.ndarray:
    """An uninitialized float64 array of `shape` for a temporary that a
    conv plan's forward holds within one call. With no graph active it is
    a view of this thread's buffer `slot`, grown to fit and kept for the
    next call, so a steady pass faults in no fresh pages; the next request
    for `slot` overwrites it, and it stays as large as the largest, a
    block's share. While a graph is active it is fresh memory, because
    there the tape, not the temporaries, sets the peak, and the thread's
    buffers are dropped. Each
    use writes every element it reads. An op's output, a tape closure's
    array and a gradient never come from it, and backward never calls it."""
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
    on the `out_hw` lattice: im2col at stride `s`, the gather that
    :func:`_scatter_taps` undoes. A read-only view of `x` when no copy is
    needed (1x1 windows at stride 1), otherwise copied into a fresh array,
    or into ``alloc("cols", shape)`` when forward passes :func:`_scratch`
    as `alloc`. With `side_by_side`, the copy lays every image's columns
    side by side in one fresh [C*kh*kw, B*h*w] array, so that one matmul
    sums a product over the batch."""
    b, c, rows, width = x.shape
    h, w = out_hw
    if s * (h - 1) + kh > rows or s * (w - 1) + kw > width:
        raise ShapeError(f"{kh}x{kw} windows at stride {s} on a {h}x{w} lattice leave {x.shape}")
    sb, sc, sy, sx = x.strides
    # [B,C,kh,kw,h,w], a read-only view
    windows = np.lib.stride_tricks.as_strided(x, (b, c, kh, kw, h, w),
                                              (sb, sc, sy, sx, s * sy, s * sx), writeable=False)
    if kh == kw == s == 1 and not (side_by_side and b > 1):
        return windows.reshape(b, c, h * w)
    if side_by_side:
        cols = np.empty((c, kh, kw, b, h, w))
        np.copyto(cols, windows.transpose(1, 2, 3, 0, 4, 5))
        return cols.reshape(c * kh * kw, b, h * w).transpose(1, 0, 2)
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
    at stride `s`. This is the origin rule of :func:`_conv_plan`. Its
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
    """The (images, rows) slices that a conv plan works in, for a batch of
    `b` images of `ho` lattice rows whose columns take `row_bytes` per
    lattice row: groups of whole images when one image's columns fit
    :data:`_BLOCK_BYTES`, otherwise runs of one image's lattice rows.
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


def _conv_plan(shape: tuple, p: Conv2dParams, transposed: bool) -> tuple:
    """The checked (forward, backward) pair of :func:`conv2d`, or with
    `transposed` of :func:`unpool_conv2d`, for an input of `shape`.
    ``forward(data, relu=None)`` is the output for `data`, or with `relu` a
    (scale, shift) pair for ``_bn_relu(data, *relu)``; ``backward(og,
    data, track_x, relu=None)`` returns the gradients in that input (None
    unless `track_x`), the weights and the bias. Neither closes over an
    input array: the op that records a plan decides what its tape keeps.

    Both ops convolve a dense array [B,C_d,.,.] with a lattice [B,C_l,h,w]
    at stride s: point (y, x) is the weights [C_l, C_d, kh, kw], as one
    matrix ``W2``, times the dense window at row ``s*y - top`` and column
    ``s*x - left``. The gather (columns times ``W2``), the scatter (``W2ᵀ``
    times lattice rows, whose taps add onto the dense array) and the weight
    gradient run over blocks of lattice rows. conv2d's input is dense, so
    its forward gathers; unpool_conv2d's is the lattice, so it scatters."""
    what = "unpool_conv2d" if transposed else "conv2d"
    _require_int(p.stride, 1, f"{what} stride")
    _require_int(p.padding, 0, f"{what} padding")
    b, c_in, h, w = shape
    layout = "[C_in,C_out,kh,kw]" if transposed else "[C_out,C_in,kh,kw]"
    _check_tensor(p.weights, f"{what} weights")
    if p.weights.ndim != 4 or 0 in p.weights.shape:
        raise ShapeError(f"{what} weights must be a non-empty {layout}, got {p.weights.shape}")
    c_lat, c_dense, kh, kw = p.weights.shape
    c_w_in, c_out = (c_lat, c_dense) if transposed else (c_dense, c_lat)
    if c_w_in != c_in:
        raise ShapeError(f"input has {c_in} channels, kernel expects {c_w_in}")
    _check_vector(p.bias, c_out, f"{what} bias")
    s, pad = p.stride, p.padding
    # the convolution's input and stride; unpool_conv2d's is the unpooled input
    in_h, in_w, step = (s * h, s * w, 1) if transposed else (h, w, s)
    ho = conv_output_size(in_h, kh, step, pad)
    wo = conv_output_size(in_w, kw, step, pad)
    if ho < 1 or wo < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {in_h}x{in_w} (pad {pad})")
    if transposed:
        dense, lattice, top, left = (b, c_dense, ho, wo), shape, kh - 1 - pad, kw - 1 - pad
    else:
        dense, lattice, top, left = shape, (b, c_lat, ho, wo), pad, pad
    hl, wl = lattice[2:]
    k = c_dense * kh * kw
    w2 = p.weights.data.reshape(c_lat, k)
    # float64 bytes per lattice row of what a block holds in the workspace:
    # its columns, and when it scatters forward also its BN-ReLU rows and
    # the s rows of canvas that each of its rows reaches
    blocks = _blocks(b, hl, (k + (c_lat + s * s * c_dense if transposed else 0)) * wl * 8)
    # backward sums a block's weight gradient over its images inside one
    # matmul, their columns side by side, when their products [C_l, K]
    # would take more than the columns; otherwise it sums the products
    sum_in_matmul = c_lat > hl * wl

    def columns(data, imgs, rows, relu=None, alloc=None, mask=None, side_by_side=False):
        """The columns of the dense window that lattice `rows` of `imgs` read."""
        window = _window(data, imgs, s * rows.start - top, s * (rows.stop - 1) + kh - top,
                         -left, s * (wl - 1) + kw - left, relu, alloc, mask)
        return _im2col(window, kh, kw, s, (rows.stop - rows.start, wl), alloc, side_by_side)

    def lattice_rows(data, imgs, rows, relu=None, alloc=None):
        """Lattice `rows` of `imgs` as [n, C_l, m], contiguous as an input, so
        that a matmul reads one layout, through BN-ReLU or not, and rounds alike."""
        part = _window(data, imgs, rows.start, rows.stop, 0, wl, relu, alloc)
        return (np.ascontiguousarray(part) if transposed else part).reshape(len(part), c_lat, -1)

    def gather(cols, out, imgs, rows):
        """``W2`` times `cols`, into lattice `rows` of `imgs` of `out`."""
        part = out.reshape(b, c_lat, -1)[imgs, :, rows.start * wl:rows.stop * wl]
        return np.matmul(w2, cols, out=part)

    def scatter(lat, target, top_row, out=None):
        """Add the taps ``W2ᵀ`` times `lat`, formed in `out` if given, onto
        `target`: tap i of lattice row y at row ``i + s*y - top_row``."""
        taps = np.matmul(w2.T, lat, out=out)
        _scatter_taps(taps.reshape(len(lat), c_dense, kh, kw, -1, wl), s, target, top_row, left)

    def weight_grad(lat, cols):
        """Lattice rows `lat` [n, C_l, m] times columns [n, K, m], summed."""
        if sum_in_matmul:
            return np.matmul(lat.transpose(1, 0, 2).reshape(c_lat, -1),
                             cols.transpose(1, 0, 2).reshape(k, -1).T)
        part = np.matmul(lat, cols.transpose(0, 2, 1))
        return part.sum(axis=0) if len(part) > 1 else part[0]

    def forward(data, relu=None):
        if not transposed:
            out = np.empty(lattice)
            for imgs, rows in blocks:
                gather(columns(data, imgs, rows, relu, _scratch), out, imgs, rows)
        else:
            out = None
            for imgs, rows in blocks:
                lat = lattice_rows(data, imgs, rows, relu, _scratch)
                # the output rows its taps reach, on a zeroed canvas
                y0 = max(0, s * rows.start - top)
                y1 = min(dense[2], s * (rows.stop - 1) + kh - top)
                canvas = _scratch("canvas", (len(lat), c_dense, y1 - y0, dense[3]))
                canvas.fill(0.0)
                scatter(lat, canvas, top - s * rows.start + y0,
                        _scratch("cols", (len(lat), k, lat.shape[2])))
                if out is None:
                    # made after the first scatter, whose strided adds take
                    # numpy iterator buffers: a one-block call peaks at its output
                    out = np.zeros(dense)
                out[imgs, :, y0:y1] += canvas
                del lat, canvas     # before the next block builds its own
        if p.bias is not None:
            _add_bias(out, p.bias.data)
        return out

    def backward(og, data, track_x, relu=None):
        d_w = None
        # a gather writes each input row once; a scatter adds into them
        d_x = (np.empty if transposed else np.zeros)(shape) if track_x else None
        # conv2d's ReLU "> 0" as bools, 1/8 of its output, which each block
        # rebuilds only for the rows it reads; rows no block reads keep a
        # zero gradient whatever their mask
        mask = np.zeros(shape, bool) if track_x and relu is not None and not transposed else None
        for imgs, rows in blocks:
            if transposed:
                cols = columns(og, imgs, rows, side_by_side=sum_in_matmul)
                lat = lattice_rows(data, imgs, rows, relu)
            else:
                cols = columns(data, imgs, rows, relu, mask=mask, side_by_side=sum_in_matmul)
                lat = lattice_rows(og, imgs, rows)
            part = weight_grad(lat, cols)
            d_w = part if d_w is None else np.add(d_w, part, out=d_w)
            if track_x and transposed:
                d_lat = gather(cols, d_x, imgs, rows)
                if relu is not None:
                    d_lat *= lat > 0.0      # relu's backward as T.relu computes it
            elif track_x:
                # the taps go into the columns' buffer, unless the columns
                # are a read-only view of the input (1x1 kernels at stride 1)
                scatter(lat, d_x[imgs], top - s * rows.start,
                        cols if cols.flags.writeable else None)
            del cols, lat, part     # before the next block builds its own
        if mask is not None:
            # relu's backward as T.relu computes it, in place
            np.multiply(d_x, mask, out=d_x)
        d_b = og.sum(axis=(0, 2, 3)) if p.bias is not None else None
        return d_x, d_w.reshape(p.weights.shape), d_b

    return forward, backward


def _record_conv(x: Tensor, p: Conv2dParams, transposed: bool, what: str,
                 norm: Optional[BatchNormParams], mode: Optional[str]) -> Tensor:
    """Run the conv plan on `x`, or with `norm` on ``relu(batchnorm(x,
    norm, mode))``, as one op that records its output as a function. The
    conv's arguments are checked before batchnorm takes its statistics.
    The tape keeps the input array by reference, or with `norm` what
    batchnorm's backward reads."""
    forward, backward = _conv_plan(_check_4d(x, what).shape, p, transposed)
    if norm is None:
        s, relu, bn_grads, ins = x.data, None, None, [x]
    else:
        s, scale, shift, bn_grads = _batchnorm_forward(x, norm, mode)
        relu, ins = (scale, shift), [x, norm.gamma, norm.beta]
    track_z = any(needs_grad(t) for t in ins)
    n_in = len(ins)     # bwd keeps no input Tensor, so batchnorm's input can die

    def bwd(og):
        d_z, d_w, d_b = backward(og, s, track_z, relu)
        if d_z is None:
            d_in = (None,) * n_in
        else:
            d_in = (d_z,) if bn_grads is None else bn_grads(d_z, s)
        return (*d_in, d_w, d_b)

    return record(partial(forward, s, relu), [*ins, p.weights, p.bias], bwd)


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Strided cross-correlation with symmetric zero padding; `p.weights`
    are [C_out, C_in, kh, kw]. Runs :func:`_conv_plan` forwards, in blocks
    whose im2col columns take at most :data:`_BLOCK_BYTES`: groups of whole
    images, or runs of one image's output rows. Each block pads only the
    input rows it reads, in the thread's workspace with no graph active.
    The tape keeps a reference to the input array, which lives anyway, so
    the op adds no activation of its own; backward rebuilds each block's
    columns. An untracked input gets no gradient.
    """
    return _record_conv(x, p, False, "conv2d", None, None)


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


def unpool_conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """The stride-1 convolution of ``unpool(x, p.stride)`` without the
    unpooled zeros: a transposed convolution at stride `p.stride` whose
    weights [C_in, C_out, kh, kw] are stored as they scatter. With ``w[o,
    c, i, j] = p.weights[c, o, kh-1-i, kw-1-j]`` it is ``conv2d(unpool(x,
    p.stride), Conv2dParams(w, p.bias, 1, p.padding))`` up to the order of
    the float64 sums.

    Forward works over blocks of input rows: one matmul each at input
    resolution, whose taps land on a canvas in the thread's workspace that
    is added into the output. Backward gathers the output gradient's
    windows at stride `p.stride` for the input and the weight gradient.
    """
    return _record_conv(x, p, True, "unpool_conv2d", None, None)


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

    if not np.all(p.running_var.data >= 0.0):
        raise NumericError("infer-mode batchnorm needs running variances >= 0")
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
    return _record_conv(x, p, False, "bn_relu_conv2d", norm, mode)


def bn_relu_unpool_conv2d(x: Tensor, norm: BatchNormParams, mode: str, p: Conv2dParams) -> Tensor:
    """``unpool_conv2d(relu(batchnorm(x, norm, mode)), p)`` as one op, byte
    for byte; the tape keeps what :func:`bn_relu_conv2d`'s keeps. The ReLU
    output never lives whole: forward applies batchnorm's scale and shift
    and the ReLU to each block of input rows before its matmul, and
    backward rebuilds them per block for the weight gradient and the
    ReLU's mask."""
    return _record_conv(x, p, True, "bn_relu_unpool_conv2d", norm, mode)


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """Affine map x @ weights.T + bias for a batch of vectors [B,n]."""
    _check_tensor(x, "linear input")
    if x.ndim != 2:
        raise ShapeError(f"linear expects a batch of vectors [B,n], got {x.shape}")
    _check_tensor(p.weights, "linear weights")
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
    computed from the raw logits; finite for any logit magnitude. The
    target may be an array."""
    _check_tensor(logits, "bce_with_logits logits")
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
