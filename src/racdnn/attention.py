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
:func:`inverse_support` builds its mask from the same per-axis
coordinates, as the outer AND of a row mask and a column mask.

Coordinate convention: normalized coordinates span [-1, 1] with -1 at the
*center* of the first source pixel of an axis and +1 at the center of the
last one. The sampler reads the source inside a one-pixel ring of zeros,
in place of validity masks: a neighbour outside the source reads an exact
+0.0, which is what makes the inverse transformer write a patch onto an
untouched canvas.

Sampling is separable, the "attention" case of Jaderberg et al. 2015,
"Spatial Transformer Networks": it interpolates rows at the y taps, then
columns at the x taps. The tape keeps the ``[B, out_h + out_w]`` tap
indices and offsets and, for a tracked grid, a reference to the source
array (not a copy); nothing per pixel. Backward rebuilds the
row-interpolated planes from these.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .errors import NumericError, ScaleError, ShapeError
from .tensor import Tensor, needs_grad, record, _sigmoid

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
    n-long source axis framed by a one-pixel ring, and each sample's offset
    [B,k] past its first tap. Taps are clipped onto the ring as floats, so
    no cast overflows and an off-image tap lands on the ring."""
    p = _pixels(coords, n)
    lo = np.floor(p)
    frac = p - lo
    idx = np.clip(np.stack([lo, lo + 1.0]), -1.0, n) + 1.0
    return idx.astype(np.intp), frac


def _pair(a: np.ndarray, taps: np.ndarray, axis: int, out=None):
    """`a` [B,C,H,W] at both taps [2,B,k] of each image along `axis` (2 or
    3), as two takes from a 2-D view of `a`: of whole rows along axis 2, of
    single values along axis 3. The first tap's values go into `out` if
    given."""
    shape = a.shape
    outer = math.prod(shape[1:axis])
    inner = math.prod(shape[axis + 1:])
    view = a.reshape(-1, inner)
    flat = np.arange(0, shape[0] * outer * shape[axis], shape[axis]).reshape(shape[0], outer, 1)
    flat = flat + taps[0][:, None, :]
    picked = shape[:axis] + (taps.shape[2],) + shape[axis + 1:]
    first = np.empty(picked) if out is None else out
    # every index is in range; mode="clip" keeps numpy from buffering `out`
    np.take(view, flat, axis=0, out=first.reshape(flat.shape + (inner,)), mode="clip")
    flat += (taps[1] - taps[0])[:, None, :]
    second = np.take(view, flat, axis=0, mode="clip").reshape(picked)
    return first, second


def _blend(first: np.ndarray, second: np.ndarray, frac: np.ndarray, axis: int) -> np.ndarray:
    """(1 - frac) * first + frac * second along `axis`, in place in `first`."""
    f = frac[:, None, :, None] if axis == 2 else frac[:, None, None, :]
    first *= 1.0 - f
    second *= f
    first += second
    return first


def _interp_matrix(taps: np.ndarray, frac: np.ndarray, n: int) -> np.ndarray:
    """[B,k,n] matrix of the 2-tap interpolation at `taps`, `frac` on a
    ringed n-long axis: row j holds the weights of output j."""
    b, k = frac.shape
    m = np.zeros((b, k, n))
    bi, ki = np.ogrid[:b, :k]
    m[bi, ki, taps[0]] = 1.0 - frac
    m[bi, ki, taps[1]] += frac
    return m


def _ring(data: np.ndarray) -> np.ndarray:
    return np.pad(data, ((0, 0), (0, 0), (1, 1), (1, 1)))


def bilinear_sample(source: Tensor, grid: Union[Tensor, np.ndarray], out_h: int) -> Tensor:
    """Sample `source` [B,C,H,W] at the axis grid `grid` [B, out_h + out_w]:
    output (i, j) of image b reads the source at y = grid[b, i] and
    x = grid[b, out_h + j].

    Rows are interpolated at the y taps, then columns at the x taps, each
    read from inside a one-pixel ring of zeros: an out-of-bounds neighbour
    reads an exact +0.0 and sends its gradient to the ring, which is
    cropped away. Differentiable in the source and (for a tracked grid) in
    the grid coordinates. The tape keeps the [B, out_h + out_w] taps and,
    for a tracked grid, a reference to the source array. A grid of the
    wrong rank, batch or length raises :class:`~racdnn.errors.ShapeError`,
    a non-finite one :class:`~racdnn.errors.NumericError`.
    """
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

    ty, fy = _taps(gd[:, :out_h], h)
    tx, fx = _taps(gd[:, out_h:], w)
    # the output comes before the ring and the gathers, since allocated
    # after them it leaves heap holes that raise the peak RSS
    out = np.empty((b, c, out_h, gd.shape[1] - out_h))
    rows = _blend(*_pair(_ring(source.data), ty, 2), fy, 2)
    _blend(*_pair(rows, tx, 3, out), fx, 3)

    track_src = needs_grad(source)
    # the caller's array, not a copy: backward rebuilds the rows from it
    src = source.data if needs_grad(grid_t) else None

    def bwd(og):
        d_src = d_grid = None
        # og . Rx: the output gradient spread over the ringed columns by the
        # 2-tap interpolation matrix of the x taps
        og_rx = np.matmul(og, _interp_matrix(tx, fx, w + 2)[:, None])
        if track_src:
            # Ry^T . og . Rx, then the ring is cropped
            ry_t = _interp_matrix(ty, fy, h + 2).transpose(0, 2, 1)[:, None]
            d_src = np.matmul(ry_t, og_rx)[:, :, 1:-1, 1:-1]
        if src is not None:
            top, bottom = _pair(_ring(src), ty, 2)
            # vertical slope: og . Rx against the bottom minus top rows
            d_gy = np.einsum("bcix,bcix->bi", bottom - top, og_rx) * (0.5 * (h - 1))
            # horizontal slope: og against the right minus left tap of the
            # row-interpolated planes, summed over channels and rows first
            rows = _blend(top, bottom, fy, 2).reshape(b, c * out_h, w + 2)
            m = np.matmul(og.reshape(b, c * out_h, -1).transpose(0, 2, 1), rows)
            m = np.take_along_axis(m, tx.transpose(1, 2, 0), axis=2)
            d_gx = (m[..., 1] - m[..., 0]) * (0.5 * (w - 1))
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
