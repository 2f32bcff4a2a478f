"""Differentiable spatial attention: isotropic scale + translation windows,
normalized sampling grids, and bilinear sampling.

A window is one ``(a_s, a_tx, a_ty)`` row per image, held in a ``[B,3]``
tensor. :func:`affine_grid` is the only way a window becomes a sampling
grid: it maps the regular output lattice through ``x -> a_s * x + a_t``,
or through the inverse map ``x -> (x - a_t) / a_s`` to write a patch
back. :func:`inverse_support` builds its mask from the same grid.

Coordinate convention: normalized coordinates span [-1, 1] with (-1, -1)
at the *center* of the top-left source pixel and (+1, +1) at the center of
the bottom-right one. Grids store (x, y) pairs, x along width. Samples
that fall outside the source contribute zero, which is what makes the
inverse transformer write a patch onto an otherwise untouched canvas.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import ScaleError, ShapeError
from .tensor import Tensor, record, _sigmoid

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


def _snap(p: np.ndarray) -> np.ndarray:
    r = np.rint(p)
    return np.where(np.abs(p - r) < _SNAP_EPS, r, p)


def _pixel_coords(grid: np.ndarray, src_h: int, src_w: int):
    px = _snap((grid[..., 0] + 1.0) * 0.5 * (src_w - 1))
    py = _snap((grid[..., 1] + 1.0) * 0.5 * (src_h - 1))
    return px, py


def bilinear_sample(source: Tensor, grid: Union[Tensor, np.ndarray]) -> Tensor:
    """Sample `source` [B,C,H,W] at `grid` [B,H',W',2].

    Each output value interpolates the four nearest source pixels;
    out-of-bounds neighbours contribute zero. Differentiable in the source
    values and (when the grid is a tracked tensor) in the grid coordinates.
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
    ho, wo = gd.shape[1], gd.shape[2]
    n_out = ho * wo

    px, py = _pixel_coords(gd, h, w)
    px = px.reshape(b, n_out)
    py = py.reshape(b, n_out)
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx = px - x0
    fy = py - y0

    src_flat = source.data.reshape(b, c, h * w)

    def corner(xi, yi):
        valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        idx = (np.clip(yi, 0, h - 1) * w + np.clip(xi, 0, w - 1))
        vals = np.take_along_axis(src_flat, idx[:, None, :], axis=2)
        # where (not masked multiply) so out-of-bounds stays exactly +0.0
        return np.where(valid[:, None, :], vals, 0.0), valid, idx

    v00, m00, i00 = corner(x0, y0)
    v10, m10, i10 = corner(x0 + 1, y0)
    v01, m01, i01 = corner(x0, y0 + 1)
    v11, m11, i11 = corner(x0 + 1, y0 + 1)

    w00 = ((1 - fx) * (1 - fy))[:, None, :]
    w10 = (fx * (1 - fy))[:, None, :]
    w01 = ((1 - fx) * fy)[:, None, :]
    w11 = (fx * fy)[:, None, :]

    out = (w00 * v00 + w10 * v10 + w01 * v01 + w11 * v11).reshape(b, c, ho, wo)

    def bwd(og):
        og4 = og.reshape(b, c, n_out)
        # one scatter of all four corners over flat (image*C + channel)*H*W
        # + pixel; a masked corner's clipped index receives exactly zero.
        # Filled in place: np.stack of four temporaries measured 1.7x slower.
        base = np.arange(b * c).reshape(b, c, 1) * (h * w)
        flat = np.empty((4, b, c, n_out), dtype=np.int64)
        vals = np.empty((4, b, c, n_out))
        for k, (wgt, msk, idx) in enumerate(((w00, m00, i00), (w10, m10, i10),
                                             (w01, m01, i01), (w11, m11, i11))):
            np.add(base, idx[:, None, :], out=flat[k])
            np.multiply(og4, wgt * msk[:, None, :], out=vals[k])
        d_src = np.bincount(flat.ravel(), vals.ravel(), minlength=b * c * h * w)
        d_src = d_src.reshape(b, c, h, w)

        # d/d(px): horizontal slope of the interpolant at each sample
        dpx = ((1 - fy)[:, None, :] * (v10 - v00) + fy[:, None, :] * (v11 - v01))
        dpy = ((1 - fx)[:, None, :] * (v01 - v00) + fx[:, None, :] * (v11 - v10))
        d_gx = (og4 * dpx).sum(axis=1) * (0.5 * (w - 1))
        d_gy = (og4 * dpy).sum(axis=1) * (0.5 * (h - 1))
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
