"""Reference bilinear sampler over a general grid of per-pixel (x, y) pairs.

This is the sampler ``racdnn.attention`` used before it became separable:
it builds the four corner indices and weights of every output pixel and
gathers them from the source inside a one-pixel ring of zeros. An axis
grid ``[B, out_h + out_w]`` becomes its plane ``[B, out_h, out_w, 2]``
through :func:`plane`, so the separable sampler can be checked against it
on any window.
"""

import numpy as np

# a sample this close to a pixel center is snapped onto it (the sampler's rule)
SNAP = 1e-9


def plane(grid: np.ndarray, out_h: int) -> np.ndarray:
    """[B, out_h, out_w, 2] (x, y) pairs of the axis grid [B, out_h + out_w]."""
    gy, gx = grid[:, :out_h], grid[:, out_h:]
    return np.stack(np.broadcast_arrays(gx[:, None, :], gy[:, :, None]), axis=-1)


def pixel_coords(grid: np.ndarray, src_h: int, src_w: int) -> np.ndarray:
    """Pixel-space x and y planes [2,B,H',W'] of a normalized grid [B,H',W',2],
    each coordinate within SNAP of a pixel center snapped onto it."""
    p = np.add(np.moveaxis(grid, -1, 0), 1.0, order="C")
    p *= np.array([0.5 * (src_w - 1), 0.5 * (src_h - 1)]).reshape(2, 1, 1, 1)
    r = np.rint(p)
    off = p - r
    np.copyto(p, r, where=np.abs(off, out=off) < SNAP)
    return p


def corners(grid: np.ndarray, h: int, w: int):
    """Flat indices and weights [B,4,n] of the bilinear corners k = 2*dy + dx
    of the samples `grid` [B,H',W',2] in an h x w source framed by a one-pixel
    ring, and the offsets fx, fy [B,1,n]."""
    b = grid.shape[0]
    frac = pixel_coords(grid, h, w).reshape(2, b, 1, -1)
    lo = np.floor(frac)
    frac -= lo
    cx, cy = (np.clip(np.concatenate([c, c + 1], axis=1), -1.0, top) + 1.0
              for c, top in zip(lo, (w, h)))
    idx = np.empty((b, 2, 2, frac.shape[3]), dtype=np.int64)
    np.add(cy[:, :, None] * (w + 2), cx[:, None], out=idx, casting="unsafe")
    wx, wy = (np.concatenate([1 - f, f], axis=1) for f in frac)
    wgt = np.multiply(wy[:, :, None], wx[:, None])
    return idx.reshape(b, 4, -1), wgt.reshape(b, 4, -1), frac[0], frac[1]


def _corner_values(source: np.ndarray, idx: np.ndarray) -> np.ndarray:
    b, c, h, w = source.shape
    ringed = np.pad(source, ((0, 0), (0, 0), (1, 1), (1, 1))).reshape(b, c, -1)
    return np.stack([ringed[i][:, idx[i]] for i in range(b)])


def sample(source: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """`source` [B,C,H,W] sampled at `grid` [B,H',W',2]."""
    b, c, h, w = source.shape
    idx, wgt, _, _ = corners(grid, h, w)
    vals = _corner_values(source, idx)
    return np.einsum("bckn,bkn->bcn", vals, wgt).reshape(b, c, *grid.shape[1:3])


def sample_grads(source: np.ndarray, grid: np.ndarray, og: np.ndarray):
    """Source gradient [B,C,H,W] and grid gradient [B,H',W',2] of the
    sample, given its output gradient `og`."""
    b, c, h, w = source.shape
    ho, wo = grid.shape[1:3]
    idx, wgt, fx, fy = corners(grid, h, w)
    og4 = og.reshape(b, c, 1, ho * wo)
    n_ring = (h + 2) * (w + 2)
    flat = np.arange(b * c).reshape(b, c, 1, 1) * n_ring + idx[:, None]
    d_src = np.bincount(flat.ravel(), (og4 * wgt[:, None]).ravel(), minlength=b * c * n_ring)
    d_src = d_src.reshape(b, c, h + 2, w + 2)[:, :, 1:-1, 1:-1]
    v00, v10, v01, v11 = (_corner_values(source, idx)[:, :, k] for k in range(4))
    dpx = (1 - fy) * (v10 - v00) + fy * (v11 - v01)
    dpy = (1 - fx) * (v01 - v00) + fx * (v11 - v10)
    d_gx = (og4[:, :, 0] * dpx).sum(axis=1) * (0.5 * (w - 1))
    d_gy = (og4[:, :, 0] * dpy).sum(axis=1) * (0.5 * (h - 1))
    return d_src, np.stack([d_gx.reshape(b, ho, wo), d_gy.reshape(b, ho, wo)], axis=-1)
