import itertools

import numpy as np
import pytest

from racdnn import attention as at
from racdnn import tensor as T
from racdnn.errors import ArgumentError, NumericError, ScaleError, ShapeError

import grid_oracle as oracle
import plane_sampler as ref
from gradcheck import check_grad
from memory import SLACK, traced_bytes
from ops import mul, sub, sum_all


def grid_of(p, h, w, inverse=False):
    """affine_grid of the single window `p`, as an [h, w, 2] plane of (x, y)."""
    return ref.plane(at.affine_grid(T.Tensor([p]), h, w, inverse=inverse).data, h)[0]


def lattice(h, w):
    """[h, w, 2] plane of the pixel centers of an h x w image."""
    return ref.plane(lattice_axes(h, w), h)[0]


def lattice_axes(h, w):
    """[1, h + w] axis grid of the pixel centers of an h x w image."""
    return np.concatenate([at.base_coords(h), at.base_coords(w)])[None]


def axis_grid(py, px, h, w):
    """[B, out_h + out_w] axis grid of the pixel-space rows `py` [B, out_h]
    and columns `px` [B, out_w] of an h x w source."""
    return np.concatenate([2 * py / (h - 1) - 1, 2 * px / (w - 1) - 1], axis=1)


def oracle_support(windows, n):
    """inverse_support of every window in `windows` [B,3] by the matrix oracle."""
    return np.stack([oracle.support(oracle.grid(oracle.inverse(oracle.transform(*w)), n, n), n, n)
                     for w in windows])


class TestTransforms:
    """The window map x -> a_s * x + a_t and its inverse, as affine_grid
    applies them to the output lattice."""

    def test_identity(self):
        np.testing.assert_array_equal(grid_of((1.0, 0.0, 0.0), 4, 5), lattice(4, 5))

    def test_direct_substitution(self):
        g = grid_of((0.5, 0.2, -0.1), 3, 3)
        np.testing.assert_allclose(g[..., 0], np.tile([-0.3, 0.2, 0.7], (3, 1)), atol=1e-15)
        np.testing.assert_allclose(g[..., 1], np.tile([[-0.6], [-0.1], [0.4]], (1, 3)),
                                   atol=1e-15)

    def test_scale_only_maps_corner(self):
        g = grid_of((0.5, 0.0, 0.0), 3, 3)
        np.testing.assert_allclose(g[0, 0], [-0.5, -0.5])
        np.testing.assert_allclose(g[-1, -1], [0.5, 0.5])

    def test_invert_identity(self):
        np.testing.assert_array_equal(grid_of((1.0, 0.0, 0.0), 4, 5, inverse=True), lattice(4, 5))

    def test_invert_against_matrix_inversion_oracle(self):
        p = (0.5, 0.2, -0.1)
        g = grid_of(p, 3, 3, inverse=True)
        # (x - 0.2) / 0.5 and (y + 0.1) / 0.5 at x, y in {-1, 0, 1}
        np.testing.assert_allclose(g[..., 0], np.tile([-2.4, -0.4, 1.6], (3, 1)), atol=1e-15)
        np.testing.assert_allclose(g[..., 1], np.tile([[-1.8], [0.2], [2.2]], (1, 3)),
                                   atol=1e-15)
        expected = oracle.grid(oracle.inverse(oracle.transform(*p)), 3, 3)
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_compose_is_identity_100_random(self):
        """The inverse grid of a window is the forward grid of the window
        that undoes it: (1/a_s, -a_tx/a_s, -a_ty/a_s)."""
        windows = oracle.random_windows(np.random.default_rng(43), 100)
        a_s = windows[:, :1]
        undo = np.hstack([1.0 / a_s, -windows[:, 1:] / a_s])
        inverse = at.affine_grid(T.Tensor(windows), 5, 6, inverse=True).data
        np.testing.assert_allclose(inverse, at.affine_grid(T.Tensor(undo), 5, 6).data,
                                   atol=1e-12)

    def test_nonpositive_scale_rejected(self):
        for bad in (0.0, -0.3):
            with pytest.raises(ScaleError):
                grid_of((bad, 0.0, 0.0), 3, 3)
            with pytest.raises(ScaleError):
                grid_of((bad, 0.0, 0.0), 3, 3, inverse=True)


_WINDOW = T.Tensor([[1.0, 0.0, 0.0]])

# every size an attention grid or mask is built at must be an integer >= 1
BAD_SIZES = {
    "affine_grid.out_h-1": lambda: at.affine_grid(_WINDOW, -1, 2),
    "affine_grid.out_h0": lambda: at.affine_grid(_WINDOW, 0, 2),
    "affine_grid.out_w4.0": lambda: at.affine_grid(_WINDOW, 2, 4.0),
    "affine_grid.inverse.out_w0": lambda: at.affine_grid(_WINDOW, 2, 0, inverse=True),
    "st.out_h4.0": lambda: at.st(T.zeros([1, 1, 4, 4]), _WINDOW, 4.0, 4),
    "st.out_w0": lambda: at.st(T.zeros([1, 1, 4, 4]), _WINDOW, 4, 0),
    "st_inverse.out_h0": lambda: at.st_inverse(T.zeros([1, 1, 4, 4]), _WINDOW, 0, 4),
    "st_inverse.out_w4.0": lambda: at.st_inverse(T.zeros([1, 1, 4, 4]), _WINDOW, 4, 4.0),
    "inverse_support.out_h-1": lambda: at.inverse_support(_WINDOW, -1, 2, 2, 2),
    "inverse_support.out_w0": lambda: at.inverse_support(_WINDOW, 2, 0, 2, 2),
    "inverse_support.src_h4.0": lambda: at.inverse_support(_WINDOW, 2, 2, 4.0, 2),
    "inverse_support.src_w-1": lambda: at.inverse_support(_WINDOW, 2, 2, 2, -1),
    "affine_grid.out_hTrue": lambda: at.affine_grid(_WINDOW, True, 4),
    "st.out_wTrue": lambda: at.st(T.zeros([1, 1, 4, 4]), _WINDOW, 4, True),
    "inverse_support.src_hTrue": lambda: at.inverse_support(_WINDOW, 2, 2, True, 2),
}


@pytest.mark.parametrize("case", sorted(BAD_SIZES))
def test_bad_sizes_raise_shape_error(case):
    with pytest.raises(ShapeError):
        BAD_SIZES[case]()


# a source, a window row or a raw attention output must be a Tensor; only
# the sampler's grid may be an ndarray
_ROWS = np.array([[1.0, 0.0, 0.0]])
NOT_TENSORS = {
    "bilinear_sample.source": lambda: at.bilinear_sample(np.zeros((1, 1, 4, 4)), lattice_axes(4, 4), 4),
    "st.image": lambda: at.st(np.zeros((1, 1, 4, 4)), _WINDOW, 4, 4),
    "st_inverse.patch": lambda: at.st_inverse(np.zeros((1, 1, 4, 4)), _WINDOW, 4, 4),
    "affine_grid.params": lambda: at.affine_grid(_ROWS, 4, 4),
    "affine_grid.inverse.params": lambda: at.affine_grid(_ROWS, 4, 4, inverse=True),
    "constrain_attention.raw": lambda: at.constrain_attention(_ROWS),
    "inverse_support.params": lambda: at.inverse_support(_ROWS, 4, 4, 4, 4),
}


@pytest.mark.parametrize("case", sorted(NOT_TENSORS))
def test_non_tensors_raise_argument_error(case):
    with pytest.raises(ArgumentError, match="must be a Tensor"):
        NOT_TENSORS[case]()


class TestGenerateGrid:
    """Geometry of the grids affine_grid generates."""

    def test_identity_grid_is_lattice(self):
        # pixel centers from -1 to 1; a one-pixel axis sits at 0
        for (h, w), xs, ys in [((2, 5), [-1.0, -0.5, 0.0, 0.5, 1.0], [-1.0, 1.0]),
                               ((3, 1), [0.0], [-1.0, 0.0, 1.0])]:
            g = grid_of((1.0, 0.0, 0.0), h, w)
            np.testing.assert_array_equal(g[..., 0], np.tile(xs, (h, 1)))
            np.testing.assert_array_equal(g[..., 1], np.tile(np.array(ys)[:, None], (1, w)))

    def test_half_scale_bounds(self):
        grid = grid_of((0.5, 0.0, 0.0), 7, 7)
        assert grid.min() >= -0.5 and grid.max() <= 0.5

    def test_bottom_right_quadrant(self):
        grid = grid_of((0.5, 0.5, 0.5), 3, 3)
        assert abs(grid[0, 0, 0] - 0.0) < 1e-15 and abs(grid[-1, -1, 0] - 1.0) < 1e-15
        assert grid.min() >= 0.0 and grid.max() <= 1.0

    def test_bad_transform_shape(self):
        for bad in (np.zeros((2, 2)), np.ones((2, 4))):
            with pytest.raises(ShapeError):
                at.affine_grid(T.Tensor(bad), 2, 2)
            with pytest.raises(ShapeError):
                at.inverse_support(T.Tensor(bad), 2, 2, 2, 2)


class TestBilinearSample:
    def test_identity_grid_reproduces_source_exactly(self):
        rng = np.random.default_rng(0)
        for h, w in [(4, 5), (7, 7), (3, 8)]:
            src = T.Tensor(rng.normal(size=(1, 2, h, w)))
            out = at.bilinear_sample(src, lattice_axes(h, w), h)
            np.testing.assert_array_equal(out.data, src.data)

    def test_midpoint_interpolation(self):
        src = T.Tensor(np.array([[[[0.0, 1.0]]]]))
        grid = np.array([[0.0, 0.0]])  # halfway between the two pixel centers
        assert at.bilinear_sample(src, grid, 1).data.tolist() == [[[[0.5]]]]

    def test_fully_out_of_bounds_is_zero(self):
        src = T.Tensor(np.random.default_rng(1).normal(size=(1, 3, 4, 4)))
        grid = np.full((1, 10), 3.0)
        out = at.bilinear_sample(src, grid, 5)
        assert np.all(out.data == 0.0)

    def test_interpolation_convexity_bounds(self):
        rng = np.random.default_rng(2)
        src = T.Tensor(rng.normal(size=(1, 1, 6, 6)))
        grid = rng.uniform(-1.3, 1.3, size=(1, 20))
        out = at.bilinear_sample(src, grid, 10).data
        assert out.max() <= max(src.data.max(), 0.0) + 1e-12
        assert out.min() >= min(src.data.min(), 0.0) - 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        h = w = 6
        src_data = rng.normal(size=(1, 2, h, w))
        # pixel-space positions at least 0.1 from any integer boundary
        px = rng.integers(0, w - 1, size=(1, 4)) + rng.uniform(0.1, 0.9, size=(1, 4))
        py = rng.integers(0, h - 1, size=(1, 4)) + rng.uniform(0.1, 0.9, size=(1, 4))
        grid_data = axis_grid(py, px, h, w)

        src = T.Tensor(src_data, requires_grad=True)
        grid = T.Tensor(grid_data, requires_grad=True)
        with T.Graph():
            out = at.bilinear_sample(src, grid, 4)
            T.backward(sum_all(mul(out, out)))

        def loss_src(sd):
            o = at.bilinear_sample(T.Tensor(sd), grid_data, 4)
            return float((o.data ** 2).sum())

        def loss_grid(gd):
            o = at.bilinear_sample(T.Tensor(src_data), gd, 4)
            return float((o.data ** 2).sum())

        check_grad(loss_src, src_data, src.grad, n_coords=20, tol=1e-3)
        check_grad(loss_grid, grid_data, grid.grad, n_coords=20, tol=1e-3)

    @staticmethod
    def zoomed_grid(rng, b, h, w, n):
        """[b, n + n] axis grid zoomed into the 2x2 cells between pixels 1
        and 3, so many samples share their four corners, plus rows and
        columns partly and fully outside [-1, 1]; every pixel position is
        at least 0.1 from an integer."""
        px = rng.integers(1, 3, size=(b, n)) + rng.uniform(0.1, 0.9, size=(b, n))
        py = rng.integers(1, 3, size=(b, n)) + rng.uniform(0.1, 0.9, size=(b, n))
        px[:, :3] = [-0.5, w - 0.5, w + 0.3]
        py[:, -3:] = [h - 0.6, -0.4, -1.7]
        return axis_grid(py, px, h, w)

    def test_batched_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        h = w = 6
        src_data = rng.normal(size=(2, 3, h, w))
        grid_data = self.zoomed_grid(rng, 2, h, w, 5)
        assert np.abs(grid_data).max() > 1.0

        src = T.Tensor(src_data, requires_grad=True)
        grid = T.Tensor(grid_data, requires_grad=True)
        with T.Graph():
            out = at.bilinear_sample(src, grid, 5)
            T.backward(sum_all(mul(out, out)))

        def loss(sd, gd):
            return float((at.bilinear_sample(T.Tensor(sd), gd, 5).data ** 2).sum())

        check_grad(lambda sd: loss(sd, grid_data), src_data, src.grad,
                   coords=list(np.ndindex(src_data.shape)), tol=1e-3)
        check_grad(lambda gd: loss(src_data, gd), grid_data, grid.grad, n_coords=40, tol=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_raises(self, bad):
        grid = np.zeros((1, 4))
        grid[0, 1] = bad
        with pytest.raises(NumericError):
            at.bilinear_sample(T.Tensor(np.ones((1, 1, 3, 3))), grid, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_source_raises(self, bad):
        # a product with the whole source would turn this pixel, outside
        # the window, into NaN at every output
        src = np.zeros((1, 1, 16, 16))
        src[0, 0, 15, 15] = bad
        grid = np.concatenate([np.linspace(-1.0, -0.5, 8)] * 2)[None]
        with pytest.raises(NumericError):
            at.bilinear_sample(T.Tensor(src), grid, 8)

    @pytest.mark.parametrize("shape,out_h", [
        ((2, 4), 2),            # a batch the source does not have
        ((1, 4), 4),            # no column left after the rows
        ((1, 4), 0),            # no row
        ((1, 4), 2.0),          # a row count that is not an integer
        ((1, 4), True),         # a bool, which is not one either
        ((4,), 2),              # no batch axis
        ((1, 2, 2, 2), 2),      # a plane of (x, y) pairs
    ], ids=["batch", "no-column", "no-row", "float-rows", "bool-rows", "unbatched", "plane"])
    def test_grid_of_the_wrong_shape_raises(self, shape, out_h):
        with pytest.raises(ShapeError):
            at.bilinear_sample(T.Tensor(np.ones((1, 1, 3, 3))), np.zeros(shape), out_h)

    def test_far_out_samples_read_zero_and_send_no_gradient(self):
        # row 0 and columns 0-2 sample inside the source; the other rows and
        # columns at +-1e300, where casting floor(1e300) to int64 would overflow
        rng = np.random.default_rng(23)
        src = T.Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        gy = [rng.uniform(-1, 1), 1e300, -1e300]
        gx = list(rng.uniform(-1, 1, size=3)) + [1e300, -1e300]
        grid = T.Tensor(np.array([gy + gx]), requires_grad=True)
        far = np.ones((1, 2, 3, 5), dtype=bool)
        far[:, :, 0, :3] = False
        only_far = np.where(far, rng.normal(size=far.shape), 0.0)
        with T.Graph():
            out = at.bilinear_sample(src, grid, 3)
            T.backward(sum_all(mul(out, only_far)))
        far_out = out.data[far]
        assert np.all(far_out == 0.0) and not np.any(np.signbit(far_out))
        assert np.all(out.data[~far] != 0.0)
        assert np.all(src.grad == 0.0)
        assert np.all(grid.grad == 0.0)

    @pytest.mark.parametrize("kept", [0, 1])
    def test_batched_source_gradient_stays_in_its_image(self, kept):
        rng = np.random.default_rng(22)
        h = w = 6
        src_data = rng.normal(size=(2, 3, h, w))
        grid_data = self.zoomed_grid(rng, 2, h, w, 5)
        only_kept = np.zeros((2, 3, 5, 5))
        only_kept[kept] = 1.0

        src = T.Tensor(src_data, requires_grad=True)
        with T.Graph():
            out = at.bilinear_sample(src, grid_data, 5)
            T.backward(sum_all(mul(mul(out, out), only_kept)))
        assert np.all(src.grad[1 - kept] == 0.0)

        alone = T.Tensor(src_data[kept:kept + 1], requires_grad=True)
        with T.Graph():
            out = at.bilinear_sample(alone, grid_data[kept:kept + 1], 5)
            T.backward(sum_all(mul(out, out)))
        np.testing.assert_allclose(src.grad[kept:kept + 1], alone.grad, rtol=1e-12)
        assert np.all(np.any(alone.grad != 0.0, axis=(2, 3)))

    @staticmethod
    def square_sum_grads(src_data, grid_data, out_h, track_src, grid_is_tensor=True):
        """Source and grid gradients of sum(bilinear_sample**2)."""
        src = T.Tensor(src_data, requires_grad=track_src)
        grid = T.Tensor(grid_data, requires_grad=True) if grid_is_tensor else grid_data
        with T.Graph():
            out = at.bilinear_sample(src, grid, out_h)
            T.backward(sum_all(mul(out, out)))
        return src.grad, grid.grad if grid_is_tensor else None

    def test_untracked_source_gets_no_gradient(self, monkeypatch):
        rng = np.random.default_rng(24)
        src_data = rng.normal(size=(2, 3, 6, 6))
        grid_data = self.zoomed_grid(rng, 2, 6, 6, 5)
        _, d_grid = self.square_sum_grads(src_data, grid_data, 5, track_src=True)

        matmul = np.matmul

        def no_scatter(*args, **kwargs):
            out = matmul(*args, **kwargs)
            # Ry^T . og . Rx is the only product the size of the source
            assert out.shape[-2:] != (6, 6), "bilinear_sample scattered a gradient that nothing takes"
            return out

        monkeypatch.setattr(np, "matmul", no_scatter)
        d_src, d_grid_alone = self.square_sum_grads(src_data, grid_data, 5, track_src=False)
        assert d_src is None
        assert np.array_equal(d_grid_alone, d_grid)

    def test_fixed_grid_gives_the_same_source_gradient(self):
        rng = np.random.default_rng(25)
        src_data = rng.normal(size=(2, 3, 6, 6))
        grid_data = self.zoomed_grid(rng, 2, 6, 6, 5)
        d_src, _ = self.square_sum_grads(src_data, grid_data, 5, track_src=True)
        d_src_alone, _ = self.square_sum_grads(src_data, grid_data, 5, True, grid_is_tensor=False)
        assert np.array_equal(d_src_alone, d_src)

    @pytest.mark.parametrize("tracked", ["grid", "source"])
    def test_tape_keeps_only_what_backward_reads(self, tracked):
        # "grid": an attention glimpse, a fixed image sampled at a tracked window
        rng = np.random.default_rng(26)
        b, c, n = 2, 3, 16
        src = T.Tensor(rng.normal(size=(b, c, 20, 20)), requires_grad=tracked == "source")
        params = T.Tensor([[0.5, 0.1, -0.2], [0.8, 0.0, 0.1]], requires_grad=True)
        with T.Graph():
            grid = at.affine_grid(params, n, n)
            grid = grid if tracked == "grid" else grid.data
            out, kept, _ = traced_bytes(lambda: at.bilinear_sample(src, grid, n))
        # per axis: two [B, n] tap indices and one [B, n] offset, 8 bytes each
        taps = 2 * 3 * b * n * 8
        assert kept <= out.data.nbytes + taps + SLACK


class TestPlaneSampler:
    """The separable sampler against the general-grid sampler it replaced
    (tests/plane_sampler.py), fed the plane of the same axis grid."""

    @staticmethod
    def windows(rng, n):
        """Windows inside the image, then the same windows moved partly and
        fully outside it."""
        inside = oracle.random_windows(rng, n)
        moved = inside.copy()
        moved[:, 1:] += rng.choice([-1.0, 1.0], size=(n, 2)) * rng.uniform(0.3, 2.5, size=(n, 2))
        return np.vstack([inside, moved])

    @pytest.mark.parametrize("inverse", [False, True], ids=["st", "st_inverse"])
    def test_matches_the_plane_sampler(self, inverse):
        rng = np.random.default_rng(44)
        windows = self.windows(rng, 20)
        assert np.any(np.abs(windows[:, 1:]) - windows[:, :1] > 1.0)   # some fully outside
        src_h, src_w, out_h, out_w = (7, 10, 9, 6) if not inverse else (5, 8, 12, 9)
        zeros = []
        for chunk in np.array_split(windows, 4):
            source = rng.normal(size=(len(chunk), 2, src_h, src_w))
            grid = at.affine_grid(T.Tensor(chunk), out_h, out_w, inverse=inverse).data
            got = at.bilinear_sample(T.Tensor(source), grid, out_h).data
            want = ref.sample(source, ref.plane(grid, out_h))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
            np.testing.assert_array_equal(got == 0.0, want == 0.0)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
            zeros.append(np.mean(got == 0.0, axis=(1, 2, 3)))
        zeros = np.concatenate(zeros)
        # windows whose samples all read the source, some read the ring, and all read it
        assert np.any(zeros == 0.0) and np.any((zeros > 0.0) & (zeros < 1.0)) and np.any(zeros == 1.0)

    def test_gradients_match_the_plane_sampler(self):
        rng = np.random.default_rng(45)
        windows = self.windows(rng, 4)
        source = T.Tensor(rng.normal(size=(8, 2, 7, 10)), requires_grad=True)
        grid = T.Tensor(at.affine_grid(T.Tensor(windows), 9, 6).data, requires_grad=True)
        weights = rng.normal(size=(8, 2, 9, 6))
        with T.Graph():
            T.backward(sum_all(mul(at.bilinear_sample(source, grid, 9), weights)))
        d_src, d_plane = ref.sample_grads(source.data, ref.plane(grid.data, 9), weights)
        # a y coordinate is shared by its row's samples, an x coordinate by its column's
        d_grid = np.concatenate([d_plane[..., 1].sum(axis=2), d_plane[..., 0].sum(axis=1)], axis=1)
        np.testing.assert_allclose(source.grad, d_src, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(grid.grad, d_grid, rtol=1e-12, atol=1e-12)


class TestSpatialTransformer:
    def test_st_identity(self):
        rng = np.random.default_rng(4)
        img = T.Tensor(rng.normal(size=(1, 3, 9, 9)))
        out = at.st(img, T.Tensor([[1.0, 0.0, 0.0]]), 9, 9)
        np.testing.assert_array_equal(out.data, img.data)

    @staticmethod
    def smooth_image(n, rng):
        y, x = np.mgrid[0:n, 0:n] / n
        base = np.sin(2.1 * np.pi * x + 0.3) * np.cos(1.7 * np.pi * y)
        return 0.5 + 0.4 * base[None, None] + 0.02 * rng.normal(size=(1, 1, n, n))

    def test_round_trip_matches_inside_window(self):
        rng = np.random.default_rng(5)
        n = 48
        img = T.Tensor(self.smooth_image(n, rng))
        for p in [(0.5, 0.2, -0.3), (0.4, 0.0, 0.0)]:
            params = T.Tensor([p])
            patch = at.st(img, params, n, n)
            back = at.st_inverse(patch, params, n, n)
            support = at.inverse_support(params, n, n, n, n)[0]
            interior = support.copy()
            for shift in (1, 2, 3):
                for ax in (0, 1):
                    interior &= np.roll(support, shift, axis=ax)
                    interior &= np.roll(support, -shift, axis=ax)
            diff = np.abs(back.data[0, 0][interior] - img.data[0, 0][interior])
            assert diff.mean() <= 0.02
            assert np.all(back.data[0, 0][~support] == 0.0)

    def test_area_accounting(self):
        n = 64
        windows = oracle.random_windows(np.random.default_rng(6), 20)
        ones = T.Tensor(np.ones((20, 1, n, n)))
        totals = at.st_inverse(ones, T.Tensor(windows), n, n).data.sum(axis=(1, 2, 3))
        a_s = windows[:, 0]
        assert np.all(np.abs(totals - (a_s * n) ** 2) <= 2 * a_s * n + 2)

    def test_st_inverse_zero_outside_window_bitwise(self):
        rng = np.random.default_rng(7)
        windows = np.vstack([oracle.lattice_windows(), oracle.random_windows(rng, 100)])
        # a few dozen windows per call keeps the sampler's buffers small
        for n, chunk in itertools.product((16, 32, 56), np.array_split(windows, 5)):
            params = T.Tensor(chunk)
            patch = T.Tensor(rng.normal(size=(len(chunk), 1, n, n)))
            canvas = at.st_inverse(patch, params, n, n).data[:, 0]
            outside = canvas[~at.inverse_support(params, n, n, n, n)]
            assert np.all(outside == 0.0)
            assert not np.signbit(outside).any()

    @pytest.mark.parametrize("n", [16, 32, 56])
    def test_inverse_support_matches_matrix_oracle(self, n):
        windows = np.vstack([oracle.lattice_windows(),
                             oracle.random_windows(np.random.default_rng(n), 100)])
        support = at.inverse_support(T.Tensor(windows), n, n, n, n)
        np.testing.assert_array_equal(support, oracle_support(windows, n))


class TestConstraintMapping:
    def test_zero_raw_gives_centered_default(self):
        out = at.constrain_attention(T.Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.0, 0.0]], atol=1e-15)

    def test_invariants_for_any_raw_output(self):
        rng = np.random.default_rng(8)
        raw = T.Tensor(rng.uniform(-100, 100, size=(1000, 3)))
        out = at.constrain_attention(raw).data
        a_s, a_tx, a_ty = out[:, 0], out[:, 1], out[:, 2]
        assert np.all(a_s > 0.0) and np.all(a_s <= 1.0) and np.all(a_s >= 0.2)
        assert np.all(np.abs(a_tx) + a_s <= 1.0 + 1e-12)
        assert np.all(np.abs(a_ty) + a_s <= 1.0 + 1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        raw_data = rng.normal(size=(3, 3))
        raw = T.Tensor(raw_data, requires_grad=True)
        target = rng.normal(size=(3, 3))
        with T.Graph():
            out = at.constrain_attention(raw)
            T.backward(sum_all(mul(sub(out, T.Tensor(target)),
                                   sub(out, T.Tensor(target)))))

        def f(rd):
            o = at.constrain_attention(T.Tensor(rd)).data
            return float(((o - target) ** 2).sum())

        check_grad(f, raw_data, raw.grad, n_coords=9, tol=1e-4)


class TestAffineGridOp:
    def test_matches_matrix_route(self):
        windows = oracle.random_windows(np.random.default_rng(42), 100)
        forward = ref.plane(at.affine_grid(T.Tensor(windows), 5, 6).data, 5)
        inverse = ref.plane(at.affine_grid(T.Tensor(windows), 5, 6, inverse=True).data, 5)
        for p, fwd, inv in zip(windows, forward, inverse):
            mat = oracle.transform(*p)
            np.testing.assert_allclose(fwd, oracle.grid(mat, 5, 6), atol=1e-15)
            np.testing.assert_allclose(inv, oracle.grid(oracle.inverse(mat), 5, 6), atol=1e-12)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_gradient_matches_finite_differences(self, inverse):
        rng = np.random.default_rng(10)
        params_data = np.array([[0.6, 0.15, -0.2], [0.35, -0.3, 0.1]])
        weights = rng.normal(size=(2, 4 + 4))

        def f(pd):
            g = at.affine_grid(T.Tensor(pd), 4, 4, inverse=inverse).data
            return float((g * weights).sum())

        params = T.Tensor(params_data, requires_grad=True)
        with T.Graph():
            g = at.affine_grid(params, 4, 4, inverse=inverse)
            T.backward(sum_all(mul(g, T.Tensor(weights))))
        check_grad(f, params_data, params.grad, n_coords=6, tol=1e-4)

    def test_scale_must_be_positive(self):
        for bad in (0.0, -0.3, np.nan):
            params = T.Tensor([[0.5, 0.0, 0.0], [bad, 0.0, 0.0]])
            for inverse in (False, True):
                with pytest.raises(ScaleError):
                    at.affine_grid(params, 2, 2, inverse=inverse)
            with pytest.raises(ScaleError):
                at.inverse_support(params, 2, 2, 2, 2)


class TestEndToEndAttentionGradient:
    def test_grad_flows_from_sample_through_constraint(self):
        """Full chain: raw params -> constrain -> grid -> sampler."""
        rng = np.random.default_rng(11)
        img_data = rng.normal(size=(1, 1, 8, 8))
        raw_data = np.array([[0.3, -0.2, 0.4]])
        target = rng.normal(size=(1, 1, 8, 8))

        def f(rd):
            params = at.constrain_attention(T.Tensor(rd))
            patch = at.st(T.Tensor(img_data), params, 8, 8)
            return float(((patch.data - target) ** 2).sum())

        raw = T.Tensor(raw_data, requires_grad=True)
        with T.Graph():
            params = at.constrain_attention(raw)
            patch = at.st(T.Tensor(img_data), params, 8, 8)
            d = sub(patch, T.Tensor(target))
            T.backward(sum_all(mul(d, d)))
        assert raw.grad is not None and np.any(raw.grad != 0.0)
        check_grad(f, raw_data, raw.grad, n_coords=3, tol=2e-3)
