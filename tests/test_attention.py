import itertools

import numpy as np
import pytest

from racdnn import attention as at
from racdnn import tensor as T
from racdnn.errors import NumericError, ScaleError, ShapeError

import grid_oracle as oracle
from gradcheck import check_grad


def grid_of(p, h, w, inverse=False):
    """affine_grid of the single window `p`, as an [h, w, 2] array."""
    return at.affine_grid(T.Tensor([p]), h, w, inverse=inverse).data[0]


def lattice(h, w):
    xs, ys = at.base_coords(w), at.base_coords(h)
    return np.stack(np.broadcast_arrays(xs[None, :], ys[:, None]), axis=-1)


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
            out = at.bilinear_sample(src, lattice(h, w)[None])
            np.testing.assert_array_equal(out.data, src.data)

    def test_midpoint_interpolation(self):
        src = T.Tensor(np.array([[[[0.0, 1.0]]]]))
        grid = np.array([[[[0.0, 0.0]]]])  # halfway between the two pixel centers
        assert at.bilinear_sample(src, grid).data.tolist() == [[[[0.5]]]]

    def test_fully_out_of_bounds_is_zero(self):
        src = T.Tensor(np.random.default_rng(1).normal(size=(1, 3, 4, 4)))
        grid = np.full((1, 5, 5, 2), 3.0)
        out = at.bilinear_sample(src, grid)
        assert np.all(out.data == 0.0)

    def test_interpolation_convexity_bounds(self):
        rng = np.random.default_rng(2)
        src = T.Tensor(rng.normal(size=(1, 1, 6, 6)))
        grid = rng.uniform(-1.3, 1.3, size=(1, 10, 10, 2))
        out = at.bilinear_sample(src, grid).data
        assert out.max() <= max(src.data.max(), 0.0) + 1e-12
        assert out.min() >= min(src.data.min(), 0.0) - 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        h = w = 6
        src_data = rng.normal(size=(1, 2, h, w))
        # pixel-space positions at least 0.1 from any integer boundary
        px = rng.integers(0, w - 1, size=(1, 4, 4)) + rng.uniform(0.1, 0.9, size=(1, 4, 4))
        py = rng.integers(0, h - 1, size=(1, 4, 4)) + rng.uniform(0.1, 0.9, size=(1, 4, 4))
        grid_data = np.stack([2 * px / (w - 1) - 1, 2 * py / (h - 1) - 1], axis=-1)

        src = T.Tensor(src_data, requires_grad=True)
        grid = T.Tensor(grid_data, requires_grad=True)
        with T.Graph():
            out = at.bilinear_sample(src, grid)
            T.backward(T.sum_all(T.mul(out, out)))

        def loss_src(sd):
            o = at.bilinear_sample(T.Tensor(sd), grid_data)
            return float((o.data ** 2).sum())

        def loss_grid(gd):
            o = at.bilinear_sample(T.Tensor(src_data), gd)
            return float((o.data ** 2).sum())

        check_grad(loss_src, src_data, src.grad, n_coords=20, tol=1e-3)
        check_grad(loss_grid, grid_data, grid.grad, n_coords=20, tol=1e-3)

    @staticmethod
    def zoomed_grid(rng, b, h, w, n):
        """[b,n,n,2] grid zoomed into the 2x2 cells between pixels 1 and 3, so
        many samples share their four corners, plus samples partly and fully
        outside [-1, 1]; every pixel position is at least 0.1 from an integer."""
        px = rng.integers(1, 3, size=(b, n, n)) + rng.uniform(0.1, 0.9, size=(b, n, n))
        py = rng.integers(1, 3, size=(b, n, n)) + rng.uniform(0.1, 0.9, size=(b, n, n))
        px[:, 0, :3] = [-0.5, w - 0.5, w + 0.3]
        py[:, -1, :3] = [h - 0.6, -0.4, -1.7]
        return np.stack([2 * px / (w - 1) - 1, 2 * py / (h - 1) - 1], axis=-1)

    def test_batched_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        h = w = 6
        src_data = rng.normal(size=(2, 3, h, w))
        grid_data = self.zoomed_grid(rng, 2, h, w, 5)
        assert np.abs(grid_data).max() > 1.0

        src = T.Tensor(src_data, requires_grad=True)
        grid = T.Tensor(grid_data, requires_grad=True)
        with T.Graph():
            out = at.bilinear_sample(src, grid)
            T.backward(T.sum_all(T.mul(out, out)))

        def loss(sd, gd):
            return float((at.bilinear_sample(T.Tensor(sd), gd).data ** 2).sum())

        check_grad(lambda sd: loss(sd, grid_data), src_data, src.grad,
                   coords=list(np.ndindex(src_data.shape)), tol=1e-3)
        check_grad(lambda gd: loss(src_data, gd), grid_data, grid.grad, n_coords=40, tol=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_raises(self, bad):
        grid = np.zeros((1, 2, 2, 2))
        grid[0, 1, 0, 1] = bad
        with pytest.raises(NumericError):
            at.bilinear_sample(T.Tensor(np.ones((1, 1, 3, 3))), grid)

    def test_far_out_samples_read_zero_and_send_no_gradient(self):
        # row 0 samples inside the source; row 1 at +-1e300, where casting
        # floor(1e300) to int64 would overflow
        rng = np.random.default_rng(23)
        src = T.Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        far = [[1e300, 0.0], [-1e300, 0.3], [0.2, 1e300], [1e300, -1e300], [-1e300, -1e300]]
        grid = T.Tensor(np.array([[rng.uniform(-1, 1, size=(5, 2)), far]]), requires_grad=True)
        only_far = np.zeros((1, 2, 2, 5))
        only_far[:, :, 1] = rng.normal(size=(2, 5))
        with T.Graph():
            out = at.bilinear_sample(src, grid)
            T.backward(T.sum_all(T.mul(out, only_far)))
        far_out = out.data[:, :, 1]
        assert np.all(far_out == 0.0) and not np.any(np.signbit(far_out))
        assert np.all(src.grad == 0.0)
        assert np.all(grid.grad[:, 1] == 0.0)

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
            out = at.bilinear_sample(src, grid_data)
            T.backward(T.sum_all(T.mul(T.mul(out, out), only_kept)))
        assert np.all(src.grad[1 - kept] == 0.0)

        alone = T.Tensor(src_data[kept:kept + 1], requires_grad=True)
        with T.Graph():
            out = at.bilinear_sample(alone, grid_data[kept:kept + 1])
            T.backward(T.sum_all(T.mul(out, out)))
        np.testing.assert_allclose(src.grad[kept:kept + 1], alone.grad, rtol=1e-12)
        assert np.all(np.any(alone.grad != 0.0, axis=(2, 3)))


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
            T.backward(T.sum_all(T.mul(T.sub(out, T.Tensor(target)),
                                       T.sub(out, T.Tensor(target)))))

        def f(rd):
            o = at.constrain_attention(T.Tensor(rd)).data
            return float(((o - target) ** 2).sum())

        check_grad(f, raw_data, raw.grad, n_coords=9, tol=1e-4)


class TestAffineGridOp:
    def test_matches_matrix_route(self):
        windows = oracle.random_windows(np.random.default_rng(42), 100)
        forward = at.affine_grid(T.Tensor(windows), 5, 6).data
        inverse = at.affine_grid(T.Tensor(windows), 5, 6, inverse=True).data
        for p, fwd, inv in zip(windows, forward, inverse):
            mat = oracle.transform(*p)
            np.testing.assert_allclose(fwd, oracle.grid(mat, 5, 6), atol=1e-15)
            np.testing.assert_allclose(inv, oracle.grid(oracle.inverse(mat), 5, 6), atol=1e-12)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_gradient_matches_finite_differences(self, inverse):
        rng = np.random.default_rng(10)
        params_data = np.array([[0.6, 0.15, -0.2], [0.35, -0.3, 0.1]])
        weights = rng.normal(size=(2, 4, 4, 2))

        def f(pd):
            g = at.affine_grid(T.Tensor(pd), 4, 4, inverse=inverse).data
            return float((g * weights).sum())

        params = T.Tensor(params_data, requires_grad=True)
        with T.Graph():
            g = at.affine_grid(params, 4, 4, inverse=inverse)
            T.backward(T.sum_all(T.mul(g, T.Tensor(weights))))
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
            d = T.sub(patch, T.Tensor(target))
            T.backward(T.sum_all(T.mul(d, d)))
        assert raw.grad is not None and np.any(raw.grad != 0.0)
        check_grad(f, raw_data, raw.grad, n_coords=3, tol=2e-3)
