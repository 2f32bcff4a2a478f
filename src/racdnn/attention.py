"""Differentiable spatial attention: isotropic scale + translation windows,
normalized sampling grids, and bilinear sampling.

A window is one ``(a_s, a_tx, a_ty)`` row per image, held in a ``[B,3]``
tensor. :func:`affine_grid` is the only way a window becomes a sampling
grid: it maps the regular output lattice through ``x -> a_s * x + a_t``,
or through the inverse map ``x -> (x - a_t) / a_s`` to write a patch
back. :func:`inverse_support` builds its mask from the same grid.

Coordinate convention: normalized coordinates span [-1, 1] with (-1, -1)
at the *center* of the top-left source pixel and (+1, +1) at the center of
the bottom-right one. Grids store (x, y) pairs, x along width. The sampler
reads the source inside a one-pixel ring of zeros, in place of validity
masks: a neighbour outside the source reads an exact +0.0, which is what
makes the inverse transformer write a patch onto an untouched canvas.
"""

from __future__ import annotations

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


def _window_grid(pd: np.ndarray, out_h: int, out_w: int, inverse: bool) -> np.ndarray:
    """[B, out_h, out_w, 2] grid of the windows in rows `pd` [B,3]."""
    if not np.all(pd[:, 0] > 0.0):
        raise ScaleError("attention scale must be positive")
    a_s = pd[:, 0][:, None, None]
    a_tx = pd[:, 1][:, None, None]
    a_ty = pd[:, 2][:, None, None]
    cx = base_coords(out_w)[None, None, :]
    cy = base_coords(out_h)[None, :, None]
    if inverse:
        gx = (cx - a_tx) / a_s
        gy = (cy - a_ty) / a_s
    else:
        gx = a_s * cx + a_tx
        gy = a_s * cy + a_ty
    return np.stack(np.broadcast_arrays(gx, gy), axis=-1)


def _pixel_coords(grid: np.ndarray, src_h: int, src_w: int) -> np.ndarray:
    """Pixel-space x and y planes [2,B,H',W'] of a normalized grid [B,H',W',2],
    each coordinate within _SNAP_EPS of a pixel center snapped onto it."""
    p = np.add(np.moveaxis(grid, -1, 0), 1.0, order="C")
    p *= np.array([0.5 * (src_w - 1), 0.5 * (src_h - 1)]).reshape(2, 1, 1, 1)
    r = np.rint(p)
    off = p - r
    np.copyto(p, r, where=np.abs(off, out=off) < _SNAP_EPS)
    return p


def _corners(grid: np.ndarray, h: int, w: int):
    """Flat indices and weights [B,4,n] of the bilinear corners k = 2*dy + dx
    of the samples `grid` [B,H',W',2] in an h x w source framed by a one-pixel
    ring, and the offsets fx, fy [B,1,n]. Corners are clipped onto the ring as
    floats, so no cast overflows and an off-image corner lands on the ring."""
    b = grid.shape[0]
    frac = _pixel_coords(grid, h, w).reshape(2, b, 1, -1)
    lo = np.floor(frac)
    frac -= lo
    cx, cy = (np.clip(np.concatenate([c, c + 1], axis=1), -1.0, top) + 1.0
              for c, top in zip(lo, (w, h)))
    idx = np.empty((b, 2, 2, frac.shape[3]), dtype=np.int64)
    np.add(cy[:, :, None] * (w + 2), cx[:, None], out=idx, casting="unsafe")
    wx, wy = (np.concatenate([1 - f, f], axis=1) for f in frac)
    wgt = np.multiply(wy[:, :, None], wx[:, None])
    return idx.reshape(b, 4, -1), wgt.reshape(b, 4, -1), frac[0], frac[1]


def bilinear_sample(source: Tensor, grid: Union[Tensor, np.ndarray]) -> Tensor:
    """Sample `source` [B,C,H,W] at `grid` [B,H',W',2].

    Each output interpolates the four nearest source pixels, read from
    inside a one-pixel ring of zeros: an out-of-bounds neighbour reads an
    exact +0.0 and sends its gradient to the ring, which is cropped away.
    Differentiable in the source and (for a tracked grid) in the grid
    coordinates. The tape keeps the corner indices and weights [B,4,n]
    only for a tracked source, and the interpolant's two slope planes
    [B,C,n] only for a tracked grid. A non-finite grid raises
    :class:`~racdnn.errors.NumericError`.
    """
    grid_t = grid if isinstance(grid, Tensor) else Tensor(grid)
    if source.ndim != 4:
        raise ShapeError(f"source must be [B,C,H,W], got {source.shape}")
    b, c, h, w = source.shape
    gd = grid_t.data
    if gd.ndim != 4 or gd.shape[-1] != 2:
        raise ShapeError(f"grid must be [B,H',W',2], got {grid_t.shape}")
    if gd.shape[0] != b:
        raise ShapeError(f"grid batch {gd.shape[0]} != source batch {b}")
    if not np.isfinite(gd).all():
        raise NumericError("bilinear_sample grid has non-finite coordinates")
    ho, wo = gd.shape[1], gd.shape[2]
    n_out = ho * wo
    n_ring = (h + 2) * (w + 2)

    # allocated before the corner temporaries: after them, it left heap holes
    # that raised peak RSS of the paper infer step by 8-10 MB at equal live bytes
    vals = np.empty((b, c, 4, n_out))
    idx, wgt, fx, fy = _corners(gd, h, w)
    ringed = np.pad(source.data, ((0, 0), (0, 0), (1, 1), (1, 1))).reshape(b, c, n_ring)
    # every index is clipped onto the ring already; mode="clip" also keeps
    # numpy from buffering `out`, which the default mode does
    for i in range(b):
        np.take(ringed[i], idx[i], axis=1, out=vals[i], mode="clip")
    out = np.einsum("bckn,bkn->bcn", vals, wgt).reshape(b, c, ho, wo)

    corners = (idx, wgt) if needs_grad(source) else None
    slopes = None
    if needs_grad(grid_t):
        # d/d(px), d/d(py): the interpolant's horizontal and vertical slopes
        v00, v10, v01, v11 = (vals[:, :, k] for k in range(4))
        slopes = ((1 - fy) * (v10 - v00) + fy * (v11 - v01),
                  (1 - fx) * (v01 - v00) + fx * (v11 - v10))

    def bwd(og):
        og4 = og.reshape(b, c, 1, n_out)
        d_src = d_grid = None
        if corners is not None:
            idx, wgt = corners
            # one scatter of all four corners over flat (image*C + channel) *
            # ringed size + ringed pixel, then the ring is cropped
            flat = np.arange(b * c).reshape(b, c, 1, 1) * n_ring + idx[:, None]
            d_src = np.bincount(flat.ravel(), (og4 * wgt[:, None]).ravel(), minlength=b * c * n_ring)
            d_src = d_src.reshape(b, c, h + 2, w + 2)[:, :, 1:-1, 1:-1]
        if slopes is not None:
            dpx, dpy = slopes
            d_gx = (og4[:, :, 0] * dpx).sum(axis=1) * (0.5 * (w - 1))
            d_gy = (og4[:, :, 0] * dpy).sum(axis=1) * (0.5 * (h - 1))
            d_grid = np.stack([d_gx.reshape(b, ho, wo), d_gy.reshape(b, ho, wo)], axis=-1)
        return d_src, d_grid

    return record(out, [source, grid_t], bwd)


def affine_grid(params: Tensor, out_h: int, out_w: int, inverse: bool = False) -> Tensor:
    """Sampling grid [B, out_h, out_w, 2] from attention parameter rows
    [B, 3] ((a_s, a_tx, a_ty) per row), differentiable in the parameters.
    `inverse` builds the grid of the inverted transform."""
    pd = _check_rows(params, "attention params")
    out = _window_grid(pd, out_h, out_w, inverse)
    a_s = pd[:, 0][:, None, None]

    def bwd(og):
        ogx, ogy = og[..., 0], og[..., 1]
        if inverse:
            d_s = -((ogx * out[..., 0] + ogy * out[..., 1]) / a_s).sum(axis=(1, 2))
            d_tx = (-ogx / a_s).sum(axis=(1, 2))
            d_ty = (-ogy / a_s).sum(axis=(1, 2))
        else:
            cx = base_coords(out_w)[None, None, :]
            cy = base_coords(out_h)[None, :, None]
            d_s = (ogx * cx + ogy * cy).sum(axis=(1, 2))
            d_tx = ogx.sum(axis=(1, 2))
            d_ty = ogy.sum(axis=(1, 2))
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
    return bilinear_sample(image, affine_grid(params, out_h, out_w))


def st_inverse(patch: Tensor, params: Tensor, out_h: int, out_w: int) -> Tensor:
    """Write `patch` [B,C,h,w] back onto an out_h x out_w canvas at the
    windows `params` [B,3]; everything outside a window is exactly zero."""
    return bilinear_sample(patch, affine_grid(params, out_h, out_w, inverse=True))


def inverse_support(params: Tensor, out_h: int, out_w: int, src_h: int, src_w: int) -> np.ndarray:
    """[B, out_h, out_w] canvas mask of the pixels st_inverse can touch
    when it writes a src_h x src_w patch at the windows `params` [B,3]."""
    grid = _window_grid(_check_rows(params, "attention params"), out_h, out_w, inverse=True)
    px, py = _pixel_coords(grid, src_h, src_w)
    return (px > -1.0) & (px < src_w) & (py > -1.0) & (py < src_h)
