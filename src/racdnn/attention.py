"""Differentiable spatial attention: isotropic scale + translation windows,
per-axis sampling grids, and separable bilinear sampling.

A window is one ``(a_s, a_tx, a_ty)`` row per image, held in a ``[B,3]``
tensor. It scales and translates but never rotates or shears, so each
output row samples one source height and each output column one source
width. :func:`affine_grid` is the only way a window becomes a sampling
grid: it maps the output lattice through ``x -> a_s * x + a_t``, or
through the inverse map ``x -> (x - a_t) / a_s`` to write a patch back,
one axis at a time. A grid is ``[B, out_h + out_w]``: each row holds the
out_h y coordinates of the output rows, then the out_w x coordinates of
the output columns, and :func:`bilinear_sample` takes out_h beside it.
:func:`inverse_support`, the mask of the pixels a write can touch, uses
the same per-axis coordinates; it is the tests' locality oracle and a
name that the traced benchmark (``perfbench/tracing.py``) wraps.

Coordinate convention: normalized coordinates span [-1, 1] with -1 at the
*center* of the first source pixel of an axis and +1 at the center of the
last one.

Sampling is separable, the "attention" case of Jaderberg et al. 2015,
"Spatial Transformer Networks" (eq. 5): the bilinear kernel summed over
the source is, per image, the product ``Ry . U . Rx^T`` of two per-axis
interpolation matrices, whose rows hold the two tap weights of an output
row or column. A tap that falls off the source has no column, so it adds
an exact +0.0, which is what makes the inverse transformer write a patch
onto an untouched canvas. The products multiply every source pixel, even
those of weight 0, and ``0 * inf`` is NaN, so a non-finite source raises
rather than spread. The tape keeps the ``[B, out_h + out_w]`` tap indices
and offsets and, for a tracked grid, a reference to the source array (not
a copy); nothing per pixel. Backward rebuilds the matrices from these.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import NumericError, ScaleError, ShapeError
from .tensor import Tensor, needs_grad, record, _check_tensor, _sigmoid

SCALE_MIN = 0.2
SCALE_MAX = 1.0

# sampling coordinates this close to a pixel center are snapped onto it,
# so lattice grids reproduce the source bit-for-bit
_SNAP_EPS = 1e-9


def base_coords(n: int) -> np.ndarray:
    """Normalized pixel-center coordinates of an n-long axis."""
    if n == 1:
        return np.zeros(1)
    return np.linspace(-1.0, 1.0, n)


def _check_rows(x: Tensor, what: str) -> np.ndarray:
    _check_tensor(x, what)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ShapeError(f"{what} must be [B,3], got {x.shape}")
    return x.data


def _check_sizes(**sizes) -> None:
    """Reject any of the named sizes that is not an integer >= 1; a bool is
    not one."""
    for what, n in sizes.items():
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ShapeError(f"{what} must be an integer >= 1, got {n!r}")


def _windows(params: Tensor) -> np.ndarray:
    """The window rows [B,3] of `params`, every scale checked positive."""
    pd = _check_rows(params, "attention params")
    if not np.all(pd[:, 0] > 0.0):
        raise ScaleError("attention scale must be positive")
    return pd


def _axis(pd: np.ndarray, col: int, n: int, inverse: bool) -> np.ndarray:
    """[B, n] coordinates of an n-long output axis through the windows `pd`,
    whose translation along that axis is column `col` (1 for x, 2 for y)."""
    a_s, a_t = pd[:, :1], pd[:, col:col + 1]
    c = base_coords(n)[None, :]
    return (c - a_t) / a_s if inverse else a_s * c + a_t


def _pixels(coords: np.ndarray, n: int) -> np.ndarray:
    """Pixel coordinates of normalized `coords` on an n-long source axis,
    each within _SNAP_EPS of a pixel center snapped onto it."""
    p = coords + 1.0
    p *= 0.5 * (n - 1)
    r = np.rint(p)
    np.copyto(p, r, where=np.abs(p - r) < _SNAP_EPS)
    return p


def _taps(coords: np.ndarray, n: int):
    """Indices [2,B,k] of the two bilinear taps of `coords` [B,k] on an
    n-long source axis, counted on that axis framed by a one-pixel ring, so
    0 and n + 1 are off the source; and each sample's offset [B,k] past its
    first tap. Taps are clipped onto the ring as floats, so no cast
    overflows and an off-image tap lands on the ring."""
    p = _pixels(coords, n)
    lo = np.floor(p)
    frac = p - lo
    idx = np.clip(np.stack([lo, lo + 1.0]), -1.0, n) + 1.0
    return idx.astype(np.intp), frac


def _interp_matrix(taps: np.ndarray, first, second, n: int) -> np.ndarray:
    """[B,k,n] matrix over an n-long source axis whose row j holds `first`
    at output j's first tap and `second` at its second (taps [2,B,k] as
    :func:`_taps` gives them): the interpolation matrix for ``1 - frac``
    and ``frac``, its slope for -1 and +1. A tap on the ring has no
    column."""
    b, k = taps.shape[1:]
    m = np.zeros((b, k, n + 2))
    bi, ki = np.ogrid[:b, :k]
    m[bi, ki, taps[0]] = first
    m[bi, ki, taps[1]] += second
    return m[:, :, 1:-1]


def bilinear_sample(source: Tensor, grid: Union[Tensor, np.ndarray], out_h: int) -> Tensor:
    """Sample `source` [B,C,H,W] at the axis grid `grid` [B, out_h + out_w]:
    output (i, j) of image b reads the source at y = grid[b, i] and
    x = grid[b, out_h + j].

    The output is ``Ry . src . Rx^T``, with Ry [B,out_h,H] and Rx
    [B,out_w,W] the interpolation matrices of the y and x taps. A tap off
    the source has no column there, so it reads an exact +0.0 and takes no
    gradient. Differentiable in the source (``Ry^T . og . Rx``) and, for a
    tracked grid, in the grid coordinates, through the slope matrices Dy
    and Dx, which hold -1 at the first tap and +1 at the second. The tape
    keeps the [B, out_h + out_w] taps and, for a tracked grid, a reference
    to the source array. A source that is not a Tensor raises
    :class:`~racdnn.errors.ArgumentError`; a grid of the wrong rank, batch
    or length :class:`~racdnn.errors.ShapeError`; a non-finite grid or
    source :class:`~racdnn.errors.NumericError`.
    """
    _check_tensor(source, "bilinear_sample source")
    grid_t = grid if isinstance(grid, Tensor) else Tensor(grid)
    if source.ndim != 4:
        raise ShapeError(f"source must be [B,C,H,W], got {source.shape}")
    b, c, h, w = source.shape
    gd = grid_t.data
    if gd.ndim != 2 or gd.shape[0] != b:
        raise ShapeError(f"grid must be [{b}, out_h + out_w], got {grid_t.shape}")
    if (not isinstance(out_h, (int, np.integer)) or isinstance(out_h, bool)
            or not 0 < out_h < gd.shape[1]):
        raise ShapeError(f"grid length {gd.shape[1]} is not out_h {out_h!r} plus out_w >= 1")
    if not np.isfinite(gd).all():
        raise NumericError("bilinear_sample grid has non-finite coordinates")
    sd = source.data
    if not np.isfinite(sd).all():
        raise NumericError("bilinear_sample source has non-finite values")

    ty, fy = _taps(gd[:, :out_h], h)
    tx, fx = _taps(gd[:, out_h:], w)
    out = np.empty((b, c, out_h, gd.shape[1] - out_h))
    rows = np.matmul(_interp_matrix(ty, 1.0 - fy, fy, h)[:, None], sd)
    np.matmul(rows, _interp_matrix(tx, 1.0 - fx, fx, w)[:, None].transpose(0, 1, 3, 2), out=out)

    track_src = needs_grad(source)
    # the caller's array, not a copy: backward's grid slopes read it
    src = sd if needs_grad(grid_t) else None

    def bwd(og):
        d_src = d_grid = None
        ry = _interp_matrix(ty, 1.0 - fy, fy, h)[:, None]
        og_rx = np.matmul(og, _interp_matrix(tx, 1.0 - fx, fx, w)[:, None])
        if track_src:
            d_src = np.matmul(ry.transpose(0, 1, 3, 2), og_rx)
        if src is not None:
            dy = _interp_matrix(ty, -1.0, 1.0, h)[:, None]
            d_gy = np.einsum("bcix,bcix->bi", np.matmul(dy, src), og_rx) * (0.5 * (h - 1))
            dx_t = _interp_matrix(tx, -1.0, 1.0, w)[:, None].transpose(0, 1, 3, 2)
            slope_x = np.matmul(np.matmul(ry, src), dx_t)
            d_gx = np.einsum("bcij,bcij->bj", slope_x, og) * (0.5 * (w - 1))
            d_grid = np.concatenate([d_gy, d_gx], axis=1)
        return d_src, d_grid

    return record(out, [source, grid_t], bwd)


def affine_grid(params: Tensor, out_h: int, out_w: int, inverse: bool = False) -> Tensor:
    """Axis grid [B, out_h + out_w] of the attention parameter rows [B,3]
    ((a_s, a_tx, a_ty) per row): the y coordinates of the out_h output
    rows, then the x coordinates of the out_w output columns.
    Differentiable in the parameters. `inverse` builds the grid of the
    inverted transform. A size that is not an integer >= 1 raises
    :class:`~racdnn.errors.ShapeError`."""
    _check_sizes(out_h=out_h, out_w=out_w)
    pd = _windows(params)
    out = np.concatenate([_axis(pd, 2, out_h, inverse), _axis(pd, 1, out_w, inverse)], axis=1)
    a_s = pd[:, 0]

    def bwd(og):
        d_tx = og[:, out_h:].sum(axis=1)
        d_ty = og[:, :out_h].sum(axis=1)
        if inverse:
            d_s = -(og * out).sum(axis=1) / a_s
            d_tx, d_ty = -d_tx / a_s, -d_ty / a_s
        else:
            d_s = og @ np.concatenate([base_coords(out_h), base_coords(out_w)])
        return (np.stack([d_s, d_tx, d_ty], axis=1),)

    return record(out, [params], bwd)


def constrain_attention(raw: Tensor) -> Tensor:
    """Map unconstrained rows [B,3] onto valid attention parameters: a_s
    in (SCALE_MIN, SCALE_MAX) via a sigmoid, and translations shrunk by
    (1 - a_s) so the window stays inside the image for any regressor
    output."""
    rd = _check_rows(raw, "raw attention output")
    sig = _sigmoid(rd[:, 0])
    a_s = SCALE_MIN + (SCALE_MAX - SCALE_MIN) * sig
    t1 = np.tanh(rd[:, 1])
    t2 = np.tanh(rd[:, 2])
    room = 1.0 - a_s
    out = np.stack([a_s, room * t1, room * t2], axis=1)

    def bwd(og):
        ds_du0 = (SCALE_MAX - SCALE_MIN) * sig * (1.0 - sig)
        d_u0 = (og[:, 0] - og[:, 1] * t1 - og[:, 2] * t2) * ds_du0
        d_u1 = og[:, 1] * room * (1.0 - t1 * t1)
        d_u2 = og[:, 2] * room * (1.0 - t2 * t2)
        return (np.stack([d_u0, d_u1, d_u2], axis=1),)

    return record(out, [raw], bwd)


def st(image: Tensor, params: Tensor, out_h: int, out_w: int) -> Tensor:
    """Sample the windows `params` [B,3] out of `image` [B,C,H,W]."""
    return bilinear_sample(image, affine_grid(params, out_h, out_w), out_h)


def st_inverse(patch: Tensor, params: Tensor, out_h: int, out_w: int) -> Tensor:
    """Write `patch` [B,C,h,w] back onto an out_h x out_w canvas at the
    windows `params` [B,3]; everything outside a window is exactly zero."""
    return bilinear_sample(patch, affine_grid(params, out_h, out_w, inverse=True), out_h)


def inverse_support(params: Tensor, out_h: int, out_w: int, src_h: int, src_w: int) -> np.ndarray:
    """[B, out_h, out_w] canvas mask of the pixels st_inverse can touch
    when it writes a src_h x src_w patch at the windows `params` [B,3]:
    the rows and the columns whose inverse coordinate has a patch pixel
    within one pixel. A size that is not an integer >= 1 raises
    :class:`~racdnn.errors.ShapeError`."""
    _check_sizes(out_h=out_h, out_w=out_w, src_h=src_h, src_w=src_w)
    pd = _windows(params)
    py = _pixels(_axis(pd, 2, out_h, True), src_h)
    px = _pixels(_axis(pd, 1, out_w, True), src_w)
    rows = (py > -1.0) & (py < src_h)
    cols = (px > -1.0) & (px < src_w)
    return rows[:, :, None] & cols[:, None, :]
