"""Matrix oracle for attention grids.

A window (a_s, a_tx, a_ty) is written as an explicit 2x3 affine matrix and
applied to the output lattice point by point; the inverse window comes
from generic matrix inversion. None of this shares code with
``racdnn.attention``, so it stays an independent check of the closed
forms that ``affine_grid`` and ``inverse_support`` use.
"""

import numpy as np

# a sample this close to a pixel center counts as on it (the sampler's rule)
SNAP = 1e-9


def transform(a_s, a_tx=0.0, a_ty=0.0) -> np.ndarray:
    """2x3 matrix mapping output coordinates to source coordinates."""
    return np.array([[a_s, 0.0, a_tx], [0.0, a_s, a_ty]])


def inverse(mat: np.ndarray) -> np.ndarray:
    """2x3 matrix of the inverse map, by inverting the homogeneous 3x3."""
    return np.linalg.inv(np.vstack([mat, [0.0, 0.0, 1.0]]))[:2]


def grid(mat: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """[out_h, out_w, 2] grid: `mat` applied to every point of the
    out_h x out_w lattice of pixel centers (both sizes >= 2)."""
    cx = np.linspace(-1.0, 1.0, out_w)[None, :]
    cy = np.linspace(-1.0, 1.0, out_h)[:, None]
    gx = mat[0, 0] * cx + mat[0, 1] * cy + mat[0, 2]
    gy = mat[1, 0] * cx + mat[1, 1] * cy + mat[1, 2]
    return np.stack(np.broadcast_arrays(gx, gy), axis=-1)


def support(g: np.ndarray, src_h: int, src_w: int) -> np.ndarray:
    """Mask of grid points with a source pixel within one pixel on both
    axes, i.e. whose bilinear sample can be nonzero."""

    def pixel(c, n):
        p = (c + 1.0) * 0.5 * (n - 1)
        r = np.rint(p)
        return np.where(np.abs(p - r) < SNAP, r, p)

    px, py = pixel(g[..., 0], src_w), pixel(g[..., 1], src_h)
    return (px > -1.0) & (px < src_w) & (py > -1.0) & (py < src_h)


def random_windows(rng, n: int) -> np.ndarray:
    """[n, 3] windows with a_s in [0.2, 1) that stay inside the image."""
    a_s = rng.uniform(0.2, 1.0, size=n)
    room = 1.0 - a_s
    return np.stack([a_s, rng.uniform(-room, room), rng.uniform(-room, room)], axis=1)


def lattice_windows() -> np.ndarray:
    """Windows whose edges land on pixel centers of common map sizes:
    scales that divide the lattice evenly, translations at 0, +-1/2 and
    +-1 of the room the scale leaves."""
    rows = []
    for a_s in (0.2, 0.25, 0.5, 0.6, 0.75, 1.0):
        for fx in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for fy in (-1.0, -0.5, 0.0, 0.5, 1.0):
                rows.append([a_s, fx * (1.0 - a_s), fy * (1.0 - a_s)])
    return np.array(rows)
