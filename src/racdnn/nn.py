"""Neural network layers and the loss on top of the autodiff tensors.

Every layer takes batched input only: spatial layers, batchnorm included,
take ``[B,C,H,W]`` and vector layers take ``[B,n]``; a single image is a
batch of one. Infer-mode batchnorm is one per-channel scale and shift.
Convolution is cross-correlation (no kernel flip). The decoder's block of
unpool then stride-1 convolution is one op, :func:`unpool_conv2d`: a
transposed convolution that never builds the unpooled zeros, equal to
``conv2d(unpool(x, k), p)``, which stays as its reference. A stride,
padding or unpool factor that is not an integer in range raises
:class:`~racdnn.errors.ArgumentError`; weights of the wrong rank raise
:class:`~racdnn.errors.ShapeError`. The loss is one binary
cross-entropy, :func:`bce_with_logits`, computed from raw logits, so it
stays finite for logits far outside the sigmoid's useful range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ArgumentError, BatchError, ShapeError
from .tensor import Tensor, needs_grad, record, _sigmoid

# batchnorm: weight of the old running statistic, and the variance floor
BN_MOMENTUM = 0.9
BN_EPSILON = 1e-5


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
    """Reject `value` unless it is an integer >= `lowest`."""
    if not isinstance(value, (int, np.integer)) or value < lowest:
        raise ArgumentError(f"{what} must be an integer >= {lowest}, got {value!r}")


def _kernel_shape(p: Conv2dParams, c_in: int, what: str) -> tuple:
    """The [C_out, C_in, kh, kw] shape of `p`'s weights, checked against an
    input of `c_in` channels."""
    if p.weights.ndim != 4:
        raise ShapeError(f"{what} weights must be [C_out,C_in,kh,kw], got {p.weights.shape}")
    if p.weights.shape[1] != c_in:
        raise ShapeError(f"input has {c_in} channels, kernel expects {p.weights.shape[1]}")
    return p.weights.shape


def _im2col(x: np.ndarray, kh: int, kw: int, s: int, off: int, out_hw: tuple) -> np.ndarray:
    """Columns [B, C*kh*kw, h*w] of the kh x kw windows of `x` [B,C,H,W]
    whose top-left corners sit at row ``off + s*y`` and column ``off + s*x``
    for (y, x) on the `out_hw` lattice: im2col at stride `s`, the gather
    that :func:`_scatter_taps` undoes. A read-only view of `x` when no copy
    is needed (1x1 windows at stride 1), a fresh array otherwise."""
    b, c = x.shape[:2]
    h, w = out_hw
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, off:off + s * h:s, off:off + s * w:s]   # [B,C,h,w,kh,kw]
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, h * w)


def _scatter_taps(taps: np.ndarray, s: int, off: int, hw: tuple) -> np.ndarray:
    """Zero canvas [B,C,*hw] plus every tap plane ``taps[:, :, i, j]`` of a
    [B,C,kh,kw,h,w] array, the one at (y, x) landing at row ``off + i + s*y``
    and column ``off + j + s*x``: col2im at stride `s`."""
    b, c, kh, kw, h, w = taps.shape
    canvas = np.zeros((b, c) + hw)
    for i in range(kh):
        for j in range(kw):
            canvas[:, :, off + i:off + i + s * h:s, off + j:off + j + s * w:s] += taps[:, :, i, j]
    return canvas


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Strided cross-correlation with symmetric zero padding.

    The tape keeps the padded input, not its im2col columns, which are up
    to kh*kw times larger: backward rebuilds the columns for the weight
    gradient, then reuses that buffer for the input gradient's columns. An
    untracked input gets no gradient.
    """
    data = _check_4d(x, "conv2d")
    _require_int(p.stride, 1, "conv2d stride")
    _require_int(p.padding, 0, "conv2d padding")
    b, c_in, h, w = data.shape
    c_out, _, kh, kw = _kernel_shape(p, c_in, "conv2d")
    s, pad = p.stride, p.padding
    ho = conv_output_size(h, kh, s, pad)
    wo = conv_output_size(w, kw, s, pad)
    if ho < 1 or wo < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h}x{w} (pad {pad})")

    padded = np.pad(data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else data
    w2 = p.weights.data.reshape(c_out, c_in * kh * kw)
    out = np.matmul(w2, _im2col(padded, kh, kw, s, 0, (ho, wo))).reshape(b, c_out, ho, wo)
    if p.bias is not None:
        out += p.bias.data[None, :, None, None]

    hp, wp = padded.shape[2], padded.shape[3]
    track_x = needs_grad(x)

    def bwd(og):
        og4 = og.reshape(b, c_out, ho * wo)
        cols = _im2col(padded, kh, kw, s, 0, (ho, wo))
        # batched matmul, not einsum: this einsum does not reach BLAS and measured 15x slower
        d_w = np.matmul(og4, cols.transpose(0, 2, 1)).sum(axis=0).reshape(p.weights.shape)
        d_b = og4.sum(axis=(0, 2)) if p.bias is not None else None
        if not track_x:
            return None, d_w, d_b
        # for 1x1 kernels at stride 1 the columns are a read-only view of the input
        d_cols = np.matmul(w2.T, og4, out=cols if cols.flags.writeable else None)
        d_padded = _scatter_taps(d_cols.reshape(b, c_in, kh, kw, ho, wo), s, 0, (hp, wp))
        d_x = d_padded[:, :, pad:hp - pad, pad:wp - pad] if pad else d_padded
        return d_x, d_w, d_b

    return record(out, [x, p.weights, p.bias], bwd)


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


def unpool_conv2d(x: Tensor, p: Conv2dParams, k: int) -> Tensor:
    """``conv2d(unpool(x, k), p)`` at stride 1, without the unpooled zeros.

    A convolution over a zero-inserted input is a transposed convolution:
    each input value, times the flipped kernel, is added onto the output at
    stride `k`. Forward is one matmul at input resolution and a tap scatter;
    backward gathers the output gradient's windows at stride `k`. Only the
    order of the float64 sums differs from the composition.
    """
    data = _check_4d(x, "unpool_conv2d")
    _require_int(k, 1, "unpool factor")
    if p.stride != 1:
        raise ArgumentError(f"unpool_conv2d needs conv stride 1, got {p.stride!r}")
    _require_int(p.padding, 0, "unpool_conv2d padding")
    b, c_in, h, w = data.shape
    c_out, _, kh, kw = _kernel_shape(p, c_in, "unpool_conv2d")
    pad = p.padding
    ho = conv_output_size(h * k, kh, 1, pad)
    wo = conv_output_size(w * k, kw, 1, pad)
    if ho < 1 or wo < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h * k}x{w * k} (pad {pad})")

    # canvas geometry: flipped tap (i, j) of input (y, x) lands at
    # (off + k*y + i, off + k*x + j); output row 0 is canvas row `start`
    # (off > 0 only when the padding exceeds the kernel's reach)
    off = max(0, pad - (kh - 1))
    start = off + (kh - 1) - pad
    hc = max(off + k * (h - 1) + kh, start + ho)
    wc = max(off + k * (w - 1) + kw, start + wo)

    # a[(o,i,j), c] = weights[o, c, kh-1-i, kw-1-j]
    a = p.weights.data[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(c_out * kh * kw, c_in)
    x3 = data.reshape(b, c_in, h * w)
    taps = np.matmul(a, x3).reshape(b, c_out, kh, kw, h, w)
    canvas = _scatter_taps(taps, k, off, (hc, wc))[:, :, start:start + ho, start:start + wo]
    out = canvas + p.bias.data[None, :, None, None] if p.bias is not None else canvas.copy()

    def bwd(og):
        og_canvas = np.zeros((b, c_out, hc, wc))
        og_canvas[:, :, start:start + ho, start:start + wo] = og
        cols = _im2col(og_canvas, kh, kw, k, off, (h, w))
        d_x = np.matmul(a.T, cols).reshape(data.shape)
        d_a = np.matmul(cols, x3.transpose(0, 2, 1)).sum(axis=0)
        d_w = d_a.reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)[:, :, ::-1, ::-1]
        d_b = og.sum(axis=(0, 2, 3)) if p.bias is not None else None
        return d_x, d_w, d_b

    return record(out, [x, p.weights, p.bias], bwd)


def batchnorm(x: Tensor, p: BatchNormParams, mode: str = "train") -> Tensor:
    """Per-channel normalization of [B,C,H,W]. Train mode normalizes with
    the batch statistics and updates the running averages; infer mode is
    one per-channel scale and shift folded from the running statistics."""
    if mode not in ("train", "infer"):
        raise ArgumentError(f"unknown batchnorm mode {mode!r}")
    data = _check_4d(x, "batchnorm")
    c = data.shape[1]
    if p.gamma.shape != (c,):
        raise ShapeError(f"gamma has shape {p.gamma.shape}, input has {c} channels")
    axes = (0, 2, 3)
    n = data.size // c
    gamma = p.gamma.data[:, None, None]
    beta = p.beta.data[:, None, None]

    if mode == "train":
        if data.shape[0] < 2:
            raise BatchError("train-mode batchnorm needs batch size >= 2")
        mean = data.mean(axis=axes)
        xhat = data - mean[:, None, None]
        var = (xhat * xhat).sum(axis=axes) / n     # data.var, from the centred input
        istd = 1.0 / np.sqrt(var[:, None, None] + BN_EPSILON)
        xhat *= istd
        p.running_mean.data = BN_MOMENTUM * p.running_mean.data + (1 - BN_MOMENTUM) * mean
        p.running_var.data = BN_MOMENTUM * p.running_var.data + (1 - BN_MOMENTUM) * var
        out = xhat * gamma
        out += beta

        def bwd(og):
            d_gamma = (og * xhat).sum(axis=axes)
            d_beta = og.sum(axis=axes)
            # gamma is per channel, so it comes out of both mean terms:
            # d_x = (og - d_beta/n - xhat*d_gamma/n) * gamma*istd
            d_x = xhat * (-d_gamma / n)[:, None, None]
            d_x += og
            d_x -= (d_beta / n)[:, None, None]
            d_x *= gamma * istd
            return d_x, d_gamma, d_beta

    else:
        rmean = p.running_mean.data[:, None, None]
        istd = 1.0 / np.sqrt(p.running_var.data[:, None, None] + BN_EPSILON)
        scale = gamma * istd
        out = data * scale
        out += beta - rmean * scale

        def bwd(og):
            xhat = data - rmean
            xhat *= istd
            xhat *= og
            return og * scale, xhat.sum(axis=axes), og.sum(axis=axes)

    return record(out, [x, p.gamma, p.beta], bwd)


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """Affine map x @ weights.T + bias for a batch of vectors [B,n]."""
    if x.ndim != 2:
        raise ShapeError(f"linear expects a batch of vectors [B,n], got {x.shape}")
    if p.weights.ndim != 2:
        raise ShapeError(f"linear weights must be [out,in], got {p.weights.shape}")
    in_dim = p.weights.shape[1]
    if x.shape[1] != in_dim:
        raise ShapeError(f"input has {x.shape[1]} features, weights expect {in_dim}")
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
