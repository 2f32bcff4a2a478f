import numpy as np
import pytest

from racdnn import networks as N
from racdnn import nn
from racdnn import tensor as T
from racdnn.errors import ArgumentError, BatchError, NumericError, ShapeError

from gradcheck import check_grad
from memory import SLACK, drop_workspace, traced_bytes, workspace
from ops import mul, sum_all


def conv_params(w, b=None, stride=1, padding=0, grad=True):
    return nn.Conv2dParams(
        weights=T.Tensor(w, requires_grad=grad),
        bias=None if b is None else T.Tensor(b, requires_grad=grad),
        stride=stride,
        padding=padding,
    )


def unpool_layout(w):
    """Weights [C_out, C_in, kh, kw] of a conv of the unpooled input in
    ``unpool_conv2d``'s layout [C_in, C_out, kh, kw], kernel flipped, and
    back: the map is its own inverse."""
    return w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].copy()


class TestConv2d:
    def test_identity_kernel(self):
        x = T.Tensor(np.random.default_rng(0).normal(size=(1, 3, 5, 5)))
        p = conv_params(np.eye(3).reshape(3, 3, 1, 1), np.zeros(3))
        out = nn.conv2d(x, p)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_cross_correlation(self):
        x = T.Tensor(np.array([[[[0.0, 1, 0], [1, 1, 1], [0, 1, 0]]]]))
        p = conv_params(np.ones((1, 1, 3, 3)), np.zeros(1), padding=1)
        out = nn.conv2d(x, p)
        assert out.data[0, 0, 1, 1] == 5.0
        # corners see only the 2x2 neighbourhood that exists
        assert out.data[0, 0, 0, 0] == 3.0

    def test_stride_and_shape_algebra(self):
        x = T.zeros([1, 3, 11, 11])
        p = conv_params(np.zeros((4, 3, 5, 5)), np.zeros(4), stride=2, padding=2)
        out = nn.conv2d(x, p)
        assert out.shape == (1, 4, 6, 6)
        assert nn.conv_output_size(11, 5, 2, 2) == 6

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            nn.conv2d(T.zeros([1, 2, 4, 4]), conv_params(np.zeros((1, 3, 3, 3))))

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            nn.conv2d(T.zeros([1, 1, 2, 2]), conv_params(np.zeros((1, 1, 5, 5))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        x_data = rng.normal(size=(1, 3, 8, 8))
        w_data = rng.normal(size=(2, 3, 3, 3)) * 0.5
        b_data = rng.normal(size=(2,))

        def run(xd, wd, bd):
            p = conv_params(wd, bd, stride=2, padding=1)
            x = T.Tensor(xd, requires_grad=True)
            with T.Graph():
                loss = sum_all(T.sigmoid(nn.conv2d(x, p)))
                T.backward(loss)
            return x, p, loss

        x, p, _ = run(x_data, w_data, b_data)

        def loss_of_x(xd):
            xt = T.Tensor(xd)
            return sum_all(T.sigmoid(nn.conv2d(xt, conv_params(w_data, b_data, 2, 1, grad=False)))).item()

        def loss_of_w(wd):
            return sum_all(T.sigmoid(nn.conv2d(T.Tensor(x_data), conv_params(wd, b_data, 2, 1, grad=False)))).item()

        def loss_of_b(bd):
            return sum_all(T.sigmoid(nn.conv2d(T.Tensor(x_data), conv_params(w_data, bd, 2, 1, grad=False)))).item()

        check_grad(loss_of_x, x_data, x.grad, n_coords=20, tol=1e-4)
        check_grad(loss_of_w, w_data, p.weights.grad, n_coords=20, tol=1e-4)
        check_grad(loss_of_b, b_data, p.bias.grad, n_coords=2, tol=1e-4)

    @staticmethod
    def sigmoid_sum_grads(x_data, w_data, b_data, stride, pad):
        """Gradients of sum_all(sigmoid(conv2d)), a loss separable per image."""
        x = T.Tensor(x_data, requires_grad=True)
        p = conv_params(w_data, b_data, stride, pad)
        with T.Graph():
            T.backward(sum_all(T.sigmoid(nn.conv2d(x, p))))
        return x.grad, p.weights.grad, p.bias.grad

    @pytest.mark.parametrize("k, stride, pad", [(1, 1, 0), (3, 2, 1), (5, 1, 2), (5, 2, 2)])
    def test_batched_gradients_match_finite_differences(self, k, stride, pad):
        rng = np.random.default_rng(11)
        x_data = rng.normal(size=(3, 2, 7, 7))
        w_data = rng.normal(size=(3, 2, k, k)) * 0.5
        b_data = rng.normal(size=(3,))
        d_x, d_w, d_b = self.sigmoid_sum_grads(x_data, w_data, b_data, stride, pad)

        def loss(xd, wd, bd):
            p = conv_params(wd, bd, stride, pad, grad=False)
            return sum_all(T.sigmoid(nn.conv2d(T.Tensor(xd), p))).item()

        # input coordinates in every image of the batch
        x_coords = [(i, int(c), int(r), int(q)) for i in range(3)
                    for c, r, q in rng.integers(0, [2, 7, 7], size=(7, 3))]
        check_grad(lambda xd: loss(xd, w_data, b_data), x_data, d_x, coords=x_coords, tol=1e-4)
        check_grad(lambda wd: loss(x_data, wd, b_data), w_data, d_w, n_coords=20, tol=1e-4)
        check_grad(lambda bd: loss(x_data, w_data, bd), b_data, d_b, n_coords=3, tol=1e-4)

    @pytest.mark.parametrize("k, stride, pad", [(1, 1, 0), (3, 2, 1), (5, 1, 2), (5, 2, 2)])
    def test_batch_gradient_is_sum_of_single_image_gradients(self, k, stride, pad):
        rng = np.random.default_rng(12)
        x_data = rng.normal(size=(3, 2, 7, 7))
        w_data = rng.normal(size=(3, 2, k, k)) * 0.5
        b_data = rng.normal(size=(3,))
        d_x, d_w, d_b = self.sigmoid_sum_grads(x_data, w_data, b_data, stride, pad)
        singles = [self.sigmoid_sum_grads(x_data[i:i + 1], w_data, b_data, stride, pad)
                   for i in range(3)]
        np.testing.assert_allclose(d_w, sum(g[1] for g in singles), rtol=1e-12)
        np.testing.assert_allclose(d_b, sum(g[2] for g in singles), rtol=1e-12)
        np.testing.assert_allclose(d_x, np.concatenate([g[0] for g in singles]), rtol=1e-12)

    @pytest.mark.parametrize("k, stride, pad", [(1, 1, 0), (3, 2, 1), (5, 1, 2)])
    def test_untracked_input_gets_no_gradient(self, k, stride, pad, monkeypatch):
        rng = np.random.default_rng(13)
        x_data = rng.normal(size=(3, 2, 7, 7))
        w_data = rng.normal(size=(3, 2, k, k)) * 0.5
        b_data = rng.normal(size=(3,))
        _, d_w, d_b = self.sigmoid_sum_grads(x_data, w_data, b_data, stride, pad)

        def no_scatter(*args):
            raise AssertionError("conv2d built an input gradient that nothing takes")

        monkeypatch.setattr(nn, "_scatter_taps", no_scatter)
        x = T.Tensor(x_data)
        p = conv_params(w_data, b_data, stride, pad)
        with T.Graph():
            T.backward(sum_all(T.sigmoid(nn.conv2d(x, p))))
        assert x.grad is None
        assert np.array_equal(p.weights.grad, d_w)
        assert np.array_equal(p.bias.grad, d_b)

    def test_tape_keeps_the_padded_input_not_the_columns(self):
        rng = np.random.default_rng(14)
        x = T.Tensor(rng.normal(size=(2, 4, 16, 16)), requires_grad=True)
        p = conv_params(rng.normal(size=(4, 4, 3, 3)), rng.normal(size=(4,)), padding=1)
        with T.Graph():
            out, kept, _ = traced_bytes(lambda: nn.conv2d(x, p))
        padded = 2 * 4 * 18 * 18 * 8           # [2,4,18,18] float64
        columns = 2 * 4 * 9 * 16 * 16 * 8      # [2,4*3*3,16*16]
        assert kept <= padded + out.data.nbytes + SLACK < columns

    def test_tape_keeps_the_input_by_reference(self):
        rng = np.random.default_rng(14)
        x = T.Tensor(rng.normal(size=(2, 4, 16, 16)), requires_grad=True)
        p = conv_params(rng.normal(size=(4, 4, 3, 3)), rng.normal(size=(4,)), padding=1)
        with T.Graph():
            out, kept, _ = traced_bytes(lambda: nn.conv2d(x, p))
        padded = 2 * 4 * 18 * 18 * 8           # [2,4,18,18] float64
        assert kept <= out.data.nbytes + SLACK < out.data.nbytes + padded

    def test_uncovered_input_gets_zero_gradient(self):
        # h=8, k=3, stride 2, no padding: windows start at rows 0, 2, 4 and
        # never reach row 7 (or column 7)
        rng = np.random.default_rng(13)
        d_x, _, _ = self.sigmoid_sum_grads(rng.normal(size=(3, 2, 8, 8)),
                                           rng.normal(size=(4, 2, 3, 3)),
                                           rng.normal(size=(4,)), 2, 0)
        assert np.all(d_x[:, :, 7, :] == 0.0)
        assert np.all(d_x[:, :, :, 7] == 0.0)
        assert np.all(d_x[:, :, :7, :7] != 0.0)


class TestConv2dBlocks:
    """conv2d in several blocks, forced by lowering the columns' byte budget,
    against the same conv in one block."""

    @staticmethod
    def run(x_data, w_data, b_data, stride, pad):
        """The output of a conv without a tape, then its three gradients."""
        out = nn.conv2d(T.Tensor(x_data), conv_params(w_data, b_data, stride, pad, grad=False))
        return (out.data,) + TestConv2d.sigmoid_sum_grads(x_data, w_data, b_data, stride, pad)

    # (1, 1, 3) and (3, 1, 4): padding beyond the kernel's reach, so a block
    # of one output row can read padding rows only
    @pytest.mark.parametrize("split", ["rows", "row", "images"])
    @pytest.mark.parametrize("k, stride, pad", [(1, 1, 0), (3, 2, 1), (5, 1, 2), (5, 2, 2),
                                                (1, 1, 3), (3, 1, 4)])
    def test_blocks_match_one_block(self, k, stride, pad, split, monkeypatch):
        rng = np.random.default_rng(15)
        x_data = rng.normal(size=(3, 2, 7, 7))
        w_data = rng.normal(size=(3, 2, k, k)) * 0.5
        b_data = rng.normal(size=(3,))
        whole = self.run(x_data, w_data, b_data, stride, pad)

        ho = wo = nn.conv_output_size(7, k, stride, pad)
        row_bytes = 2 * k * k * wo * 8
        budget = {"rows": 2 * row_bytes, "row": 1, "images": 2 * ho * row_bytes}[split]
        monkeypatch.setattr(nn, "_BLOCK_BYTES", budget)
        blocks = nn._blocks(3, ho, row_bytes)
        if split == "images":
            assert [(i.start, i.stop) for i, _ in blocks] == [(0, 2), (2, 3)]
        else:
            assert len(blocks) == 3 * -(-ho // {"rows": 2, "row": 1}[split])
        for got, want in zip(self.run(x_data, w_data, b_data, stride, pad), whole):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_row_blocks_gradients_match_finite_differences(self, monkeypatch):
        # 5x5 at stride 1: adjacent blocks of 2 output rows share 4 input rows
        rng = np.random.default_rng(16)
        x_data = rng.normal(size=(2, 2, 7, 6))
        w_data = rng.normal(size=(3, 2, 5, 5)) * 0.5
        b_data = rng.normal(size=(3,))
        monkeypatch.setattr(nn, "_BLOCK_BYTES", 2 * (2 * 25 * 6 * 8))
        assert len(nn._blocks(2, 7, 2 * 25 * 6 * 8)) == 8
        _, d_x, d_w, d_b = self.run(x_data, w_data, b_data, 1, 2)

        def loss(xd, wd, bd):
            p = conv_params(wd, bd, 1, 2, grad=False)
            return sum_all(T.sigmoid(nn.conv2d(T.Tensor(xd), p))).item()

        x_coords = [(i, c, r, q) for i in range(2) for c in range(2) for r in range(7)
                    for q in (0, 3)]
        check_grad(lambda xd: loss(xd, w_data, b_data), x_data, d_x, coords=x_coords, tol=1e-4)
        check_grad(lambda wd: loss(x_data, wd, b_data), w_data, d_w, n_coords=20, tol=1e-4)
        check_grad(lambda bd: loss(x_data, w_data, bd), b_data, d_b, n_coords=3, tol=1e-4)

    def test_no_graph_conv_peaks_below_its_columns(self, monkeypatch):
        rng = np.random.default_rng(17)
        x = T.Tensor(rng.normal(size=(2, 8, 32, 32)))
        p = conv_params(rng.normal(size=(4, 8, 3, 3)), rng.normal(size=(4,)), padding=1, grad=False)
        budget = 64 * 1024
        monkeypatch.setattr(nn, "_BLOCK_BYTES", budget)
        # from an empty workspace, which then keeps one block's padded rows
        # and columns
        drop_workspace()
        out, _, peak = traced_bytes(lambda: nn.conv2d(x, p))
        columns = 2 * 8 * 9 * 32 * 32 * 8      # [2,8*3*3,32*32]
        assert peak <= out.data.nbytes + 2 * budget + SLACK < columns

    def test_row_blocks_keep_no_padded_rows(self, monkeypatch):
        rng = np.random.default_rng(18)
        x = T.Tensor(rng.normal(size=(2, 4, 16, 16)), requires_grad=True)
        p = conv_params(rng.normal(size=(4, 4, 3, 3)), rng.normal(size=(4,)), padding=1)
        row_bytes = 4 * 9 * 16 * 8
        monkeypatch.setattr(nn, "_BLOCK_BYTES", 4 * row_bytes)
        assert len(nn._blocks(2, 16, row_bytes)) == 8
        with T.Graph():
            out, kept, _ = traced_bytes(lambda: nn.conv2d(x, p))
        padded = 2 * 4 * 18 * 18 * 8           # [2,4,18,18]; the blocks' rows overlap and take more
        assert kept <= out.data.nbytes + SLACK < out.data.nbytes + padded

    def test_backward_allocates_no_padded_gradient_canvas(self, monkeypatch):
        rng = np.random.default_rng(19)
        x = T.Tensor(rng.normal(size=(2, 16, 48, 48)), requires_grad=True)
        p = conv_params(rng.normal(size=(2, 16, 3, 3)), None, padding=1, grad=False)
        budget = 2 * 16 * 9 * 48 * 8        # two output rows of columns
        monkeypatch.setattr(nn, "_BLOCK_BYTES", budget)
        with T.Graph():
            out = nn.conv2d(x, p)
            loss = sum_all(out)
        _, kept, peak = traced_bytes(lambda: T.backward(loss))
        # the input gradient, the output gradient, a block's window and
        # columns, and numpy's iterator buffers for a strided add's operands
        bound = x.data.nbytes + out.data.nbytes + 2 * budget + 16 * np.getbufsize() + SLACK
        canvas = 2 * 16 * 50 * 50 * 8       # [2,16,50,50], and a leaf's copy of its inside
        assert x.grad.shape == x.shape and kept <= x.data.nbytes + SLACK
        assert peak <= bound < canvas + x.data.nbytes

    def test_paper_encoder_block_counts(self):
        # (c_in, kernel, output side) of the paper encoder's layers at B=2
        layers = [(3, 5, 112), (64, 3, 56), (128, 3, 28), (256, 3, 14), (512, 3, 7)]
        counts = [len(nn._blocks(2, ho, c_in * k * k * ho * 8)) for c_in, k, ho in layers]
        assert counts == [4, 8, 4, 2, 1]


class TestOriginRule:
    """``nn._scatter_taps`` and the gather ``nn._im2col(nn._window(...))``
    place tap (i, j) of source (y, x) at row ``i + s*y - top`` and column
    ``j + s*x - left`` of the target, and skip or read zero outside it."""

    @staticmethod
    def scatter_by_loops(taps, s, shape, top, left):
        out = np.zeros(shape)
        kh, kw, h, w = taps.shape[2:]
        for i, j, y, x in np.ndindex(kh, kw, h, w):
            r, c = i + s * y - top, j + s * x - left
            if 0 <= r < shape[2] and 0 <= c < shape[3]:
                out[:, :, r, c] += taps[:, :, i, j, y, x]
        return out

    def test_scatter_is_the_adjoint_of_the_gather(self):
        rng = np.random.default_rng(24)
        # draws whose window lies partly outside the target, and draws where
        # no tap lands on it at all
        outside = {"partly": 0, "none lands": 0}
        for _ in range(200):
            kh, kw = rng.integers(1, 6, size=2)
            s = int(rng.integers(1, 4))
            top, left = (int(v) for v in rng.integers(-3, 6, size=2))
            h, w = rng.integers(1, 5, size=2)
            shape = (2, 3) + tuple(int(v) for v in rng.integers(1, 10, size=2))
            taps = rng.normal(size=(2, 3, kh, kw, h, w))
            y = rng.normal(size=shape)

            out = np.zeros(shape)
            nn._scatter_taps(taps, s, out, top, left)
            np.testing.assert_array_equal(out, self.scatter_by_loops(taps, s, shape, top, left))

            def gather(a):
                window = nn._window(a, slice(None), -top, s * (h - 1) + kh - top,
                                    -left, s * (w - 1) + kw - left)
                return nn._im2col(window, kh, kw, s, (h, w)).reshape(taps.shape)

            lhs, rhs = (out * y).sum(), (taps * gather(y)).sum()
            scale = (np.abs(taps) * gather(np.abs(y))).sum()
            assert abs(lhs - rhs) <= 1e-12 * scale
            inside = (-top >= 0 and -left >= 0 and s * (h - 1) + kh - top <= shape[2]
                      and s * (w - 1) + kw - left <= shape[3])
            if scale == 0.0:
                outside["none lands"] += 1
            elif not inside:
                outside["partly"] += 1
        assert min(outside.values()) >= 10

    def test_window_inside_is_a_view_and_outside_reads_zero(self):
        data = np.random.default_rng(25).normal(size=(2, 3, 5, 6))
        inside = nn._window(data, slice(1, 2), 1, 4, 0, 6)
        assert np.shares_memory(inside, data)
        np.testing.assert_array_equal(inside, data[1:2, :, 1:4])
        for y0, y1 in [(-4, -1), (7, 9), (-2, 7)]:
            got = nn._window(data, slice(None), y0, y1, -1, 7)
            want = np.pad(data, ((0, 0), (0, 0), (4, 4), (1, 1)))[:, :, y0 + 4:y1 + 4]
            np.testing.assert_array_equal(got, want)


class TestUnpool:
    def test_top_left_rule_bit_exact(self):
        out = nn.unpool(T.Tensor([[[[7.5]]]]), 2)
        np.testing.assert_array_equal(out.data, [[[[7.5, 0.0], [0.0, 0.0]]]])

    def test_k1_identity(self):
        x = T.Tensor(np.random.default_rng(1).normal(size=(1, 2, 3, 3)))
        np.testing.assert_array_equal(nn.unpool(x, 1).data, x.data)

    def test_sparsity_count(self):
        x = T.Tensor(np.random.default_rng(2).uniform(0.5, 1.0, size=(1, 1, 7, 7)))
        out = nn.unpool(x, 2)
        assert out.shape == (1, 1, 14, 14)
        assert np.count_nonzero(out.data) == 49

    def test_mass_preserved_exactly(self):
        # integer-valued entries keep both sums exact regardless of order
        x = T.Tensor(np.random.default_rng(3).integers(-50, 50, size=(1, 2, 5, 4)).astype(float))
        assert nn.unpool(x, 3).data.sum() == x.data.sum()

    def test_gradient_routes_to_top_left_only(self):
        x = T.Tensor(np.random.default_rng(4).normal(size=(1, 1, 2, 2)), requires_grad=True)
        with T.Graph():
            out = nn.unpool(x, 2)
            T.backward(sum_all(mul(out, out)))
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_invalid_factor(self):
        with pytest.raises(ArgumentError):
            nn.unpool(T.zeros([1, 1, 2, 2]), 0)


class TestUnpoolConv2d:
    @staticmethod
    def grads(op, x_data, w_data, b_data, pad, stride=1):
        """Output and gradients of sum_all(sigmoid(op(x, p))), a loss separable per image."""
        x = T.Tensor(x_data, requires_grad=True)
        p = conv_params(w_data, b_data, stride, pad)
        with T.Graph():
            out = op(x, p)
            T.backward(sum_all(T.sigmoid(out)))
        return out.data, x.grad, p.weights.grad, None if b_data is None else p.bias.grad

    @staticmethod
    def data(kernel, seed, b=3):
        """Input, weights in ``unpool_conv2d``'s layout and bias; `kernel` is
        a size or a (kh, kw) pair."""
        kh, kw = kernel if isinstance(kernel, tuple) else (kernel, kernel)
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(b, 2, 4, 5)), unpool_layout(rng.normal(size=(3, 2, kh, kw)) * 0.5),
                rng.normal(size=(3,)))

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("k, kernel, pad",
                             [(2, 5, 2), (2, 3, 1), (2, 1, 0), (3, 3, 0), (3, 5, 2), (2, 3, 2),
                              (2, 1, 1),
                              pytest.param(2, (3, 5), 1, id="2-3x5-1"),
                              pytest.param(2, (5, 3), 2, id="2-5x3-2"),
                              pytest.param(2, (1, 3), 0, id="2-1x3-0"),
                              pytest.param(2, (1, 3), 1, id="2-1x3-1"),
                              pytest.param(3, (5, 2), 2, id="3-5x2-2")])
    def test_matches_unpool_then_conv2d(self, k, kernel, pad, bias):
        x_data, w_data, b_data = self.data(kernel, 20)
        b_data = b_data if bias else None
        fused = self.grads(nn.unpool_conv2d, x_data, w_data, b_data, pad, stride=k)
        composed = self.grads(lambda x, p: nn.conv2d(nn.unpool(x, k), p), x_data,
                              unpool_layout(w_data), b_data, pad)
        assert fused[0].shape == composed[0].shape
        fused = fused[:2] + (unpool_layout(fused[2]),) + fused[3:]
        for got, want in zip(fused, composed):
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k, kernel, pad", [(2, 5, 2), (3, 3, 0)])
    def test_gradients_match_finite_differences(self, k, kernel, pad):
        x_data, w_data, b_data = self.data(kernel, 21)
        _, d_x, d_w, d_b = self.grads(nn.unpool_conv2d, x_data, w_data, b_data, pad, stride=k)

        def loss(xd, wd, bd):
            p = conv_params(wd, bd, k, pad, grad=False)
            return sum_all(T.sigmoid(nn.unpool_conv2d(T.Tensor(xd), p))).item()

        check_grad(lambda xd: loss(xd, w_data, b_data), x_data, d_x, n_coords=30, tol=1e-4)
        check_grad(lambda wd: loss(x_data, wd, b_data), w_data, d_w, n_coords=20, tol=1e-4)
        check_grad(lambda bd: loss(x_data, w_data, bd), b_data, d_b, n_coords=3, tol=1e-4)

    def test_batch_gradient_is_sum_of_single_image_gradients(self):
        x_data, w_data, b_data = self.data(5, 22)
        op = nn.unpool_conv2d
        _, d_x, d_w, d_b = self.grads(op, x_data, w_data, b_data, 2, stride=2)
        singles = [self.grads(op, x_data[i:i + 1], w_data, b_data, 2, stride=2) for i in range(3)]
        np.testing.assert_allclose(d_w, sum(g[2] for g in singles), rtol=1e-12)
        np.testing.assert_allclose(d_b, sum(g[3] for g in singles), rtol=1e-12)
        np.testing.assert_allclose(d_x, np.concatenate([g[1] for g in singles]), rtol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            nn.unpool_conv2d(T.zeros([1, 2, 4, 4]), conv_params(np.zeros((3, 1, 3, 3)), stride=2))

    def test_tape_keeps_no_copy_of_the_weights(self):
        rng = np.random.default_rng(23)
        x = T.Tensor(rng.normal(size=(2, 16, 4, 4)), requires_grad=True)
        p = conv_params(unpool_layout(rng.normal(size=(16, 16, 5, 5))), rng.normal(size=(16,)),
                        2, 2)
        with T.Graph():
            out, kept, _ = traced_bytes(lambda: nn.unpool_conv2d(x, p))
        flipped = p.weights.data.nbytes    # [16*5*5, 16] float64
        assert kept <= out.data.nbytes + SLACK < out.data.nbytes + flipped

    def test_backward_builds_the_weight_gradient_as_one_array(self):
        # the first paper decoder block at B=2, whose [C_in, C_out*kh*kw]
        # weight gradient takes 6.25 MiB, on an untracked input, so that the
        # closure builds no input gradient
        b, c_in, c_out, side, kernel = 2, 256, 128, 7, 5
        rng = np.random.default_rng(24)
        x = T.Tensor(rng.normal(size=(b, c_in, side, side)))
        p = conv_params(unpool_layout(rng.normal(size=(c_out, c_in, kernel, kernel))),
                        rng.normal(size=(c_out,)), 2, 2)
        with T.Graph() as g:
            out = nn.unpool_conv2d(x, p)
        _, closure = g._nodes[out._node[1]]
        og = rng.normal(size=out.shape)
        (d_x, d_w, _), _, peak = traced_bytes(lambda: closure(og))
        assert d_x is None
        cols = c_out * kernel * kernel * b * side * side * 8
        window = b * c_out * (2 * (side - 1) + kernel) ** 2 * 8
        # beside the weight gradient it returns, the output gradient's
        # zero-bordered window and its columns, and the input laid side by
        # side; a second weight gradient to sum into the first would not fit
        bound = d_w.nbytes + window + cols + x.data.nbytes + SLACK
        assert peak <= bound < 2 * d_w.nbytes + cols


@pytest.mark.parametrize("op", ["conv2d", "unpool_conv2d"])
def test_checkpoint_rerun_runs_no_forward_of_a_last_plain_conv(op, monkeypatch):
    # a plain conv records its output as a function, as the fused ones do,
    # so a checkpoint's rerun records its node without computing it
    forwards = []
    plan = nn._conv_plan

    def counting(*args):
        forward, backward = plan(*args)

        def counted(*a):
            forwards.append("rerun" if T._recomputing() else "run")
            return forward(*a)
        return counted, backward

    rng = np.random.default_rng(25)
    conv = getattr(nn, op)
    stride = 1 if op == "conv2d" else 2     # an unpool conv's stride is its factor
    p = conv_params(rng.normal(size=(3, 3, 3, 3)), rng.normal(size=(3,)), stride, 1)
    x_data = rng.normal(size=(2, 3, 5, 5))

    def run(checkpointed):
        x = T.Tensor(x_data, requires_grad=True)
        p.weights.grad = p.bias.grad = None
        with T.Graph():
            def segment(t):
                return conv(T.relu(t), p)
            out = T.checkpoint(segment, [x], [p.weights, p.bias]) if checkpointed else segment(x)
            T.backward(sum_all(mul(out, out)))
        return [a.tobytes() for a in (out.data, x.grad, p.weights.grad, p.bias.grad)]

    plain = run(False)
    monkeypatch.setattr(nn, "_conv_plan", counting)
    assert run(True) == plain
    assert forwards == ["run"]


def _conv_call(stride=1, padding=0):
    return lambda: nn.conv2d(T.zeros([1, 1, 4, 4]), conv_params(np.zeros((1, 1, 3, 3)), None,
                                                                  stride, padding))


def _unpool_conv_call(stride=2, padding=0, k=3):
    return lambda: nn.unpool_conv2d(T.zeros([1, 1, 4, 4]),
                                    conv_params(np.zeros((1, 1, k, k)), None, stride, padding))


def _bn_call(**lengths):
    """Infer-mode batchnorm of 3 channels, with the named vectors' lengths
    replaced."""
    n = {"gamma": 3, "beta": 3, "running_mean": 3, "running_var": 3, **lengths}
    p = nn.BatchNormParams(T.full([n["gamma"]], 1.0), T.zeros([n["beta"]]),
                           T.zeros([n["running_mean"]]), T.full([n["running_var"]], 1.0))
    return nn.batchnorm(T.zeros([2, 3, 2, 2]), p, "infer")


def _bn_vectors_call(op="batchnorm", **vectors):
    """Infer-mode `op` ("batchnorm" or "bn_relu_conv2d") of 3 channels,
    with the named parameter vectors replaced by the given values."""
    v = {"gamma": T.full([3], 1.0), "beta": T.zeros([3]), "running_mean": T.zeros([3]),
         "running_var": T.full([3], 1.0), **vectors}
    p = nn.BatchNormParams(v["gamma"], v["beta"], v["running_mean"], v["running_var"])
    if op == "batchnorm":
        return lambda: nn.batchnorm(T.zeros([2, 3, 2, 2]), p, "infer")
    return lambda: nn.bn_relu_conv2d(T.zeros([2, 3, 4, 4]), p, "infer",
                                     conv_params(np.zeros((2, 3, 3, 3)), None, 1, 1))


def _bn_relu_conv_call(op, mode="infer", b=2, gamma=3, stride=1, tensor=True):
    """The fused op `op` ("conv2d" or "unpool_conv2d") over a [b,3,4,4]
    input and a 3x3 kernel of 2 output channels, with gamma's length
    `gamma`; the input is an ndarray unless `tensor`."""
    norm = nn.BatchNormParams(T.full([gamma], 1.0), T.zeros([3]), T.zeros([3]), T.full([3], 1.0))
    x = T.zeros([b, 3, 4, 4]) if tensor else np.zeros((b, 3, 4, 4))
    if op == "conv2d":
        p = conv_params(np.zeros((2, 3, 3, 3)), None, stride, 1)
        return lambda: nn.bn_relu_conv2d(x, norm, mode, p)
    p = conv_params(np.zeros((3, 2, 3, 3)), None, stride, 1)
    return lambda: nn.bn_relu_unpool_conv2d(x, norm, mode, p)


BAD_ARGUMENTS = {
    "conv2d.stride0": (_conv_call(stride=0), ArgumentError),
    "conv2d.stride-1": (_conv_call(stride=-1), ArgumentError),
    "conv2d.stride1.5": (_conv_call(stride=1.5), ArgumentError),
    "conv2d.padding-1": (_conv_call(padding=-1), ArgumentError),
    "conv2d.strideTrue": (_conv_call(stride=True), ArgumentError),
    "conv2d.paddingFalse": (_conv_call(padding=False), ArgumentError),
    "conv2d.weights3d": (lambda: nn.conv2d(T.zeros([1, 1, 4, 4]), conv_params(np.zeros((1, 3, 3)))),
                         ShapeError),
    "unpool.factor1.5": (lambda: nn.unpool(T.zeros([1, 1, 2, 2]), 1.5), ArgumentError),
    "unpool.factor-1": (lambda: nn.unpool(T.zeros([1, 1, 2, 2]), -1), ArgumentError),
    "unpool.factorTrue": (lambda: nn.unpool(T.zeros([1, 1, 2, 2]), True), ArgumentError),
    # unpool_conv2d's stride is its unpool factor; the stride rows check it
    # under the decoder's 5x5 kernel and padding 2
    "unpool_conv2d.stride0": (_unpool_conv_call(stride=0, k=5, padding=2), ArgumentError),
    "unpool_conv2d.stride-1": (_unpool_conv_call(stride=-1), ArgumentError),
    "unpool_conv2d.strideTrue": (_unpool_conv_call(stride=True, k=5, padding=2), ArgumentError),
    "unpool_conv2d.padding-1": (_unpool_conv_call(padding=-1), ArgumentError),
    "unpool_conv2d.factor0": (_unpool_conv_call(stride=0), ArgumentError),
    "unpool_conv2d.factor1.5": (_unpool_conv_call(stride=1.5), ArgumentError),
    "unpool_conv2d.factorTrue": (_unpool_conv_call(stride=True), ArgumentError),
    "unpool_conv2d.paddingTrue": (_unpool_conv_call(padding=True), ArgumentError),
    "unpool_conv2d.weights3d": (lambda: nn.unpool_conv2d(T.zeros([1, 1, 4, 4]),
                                                         conv_params(np.zeros((1, 3, 3)))),
                                ShapeError),
    "linear.weights1d": (lambda: nn.linear(T.zeros([1, 2]), nn.LinearParams(T.zeros([2]), None)),
                         ShapeError),
    "batchnorm.mode": (lambda: nn.batchnorm(T.zeros([2, 1, 2, 2]), nn.BatchNormParams(
        T.full([1], 1.0), T.zeros([1]), T.zeros([1]), T.full([1], 1.0)), "eval"), ArgumentError),
    "conv2d.bias2": (lambda: nn.conv2d(T.zeros([1, 1, 4, 4]),
                                       conv_params(np.zeros((4, 1, 3, 3)), np.zeros(2))),
                     ShapeError),
    "unpool_conv2d.bias2": (lambda: nn.unpool_conv2d(T.zeros([1, 1, 4, 4]),
                                                     conv_params(np.zeros((1, 4, 3, 3)), np.zeros(2))),
                            ShapeError),
    "linear.bias5": (lambda: nn.linear(T.zeros([1, 2]), nn.LinearParams(T.zeros([4, 2]),
                                                                          T.zeros([5]))),
                     ShapeError),
    "batchnorm.beta2": (lambda: _bn_call(beta=2), ShapeError),
    "batchnorm.running_mean2": (lambda: _bn_call(running_mean=2), ShapeError),
    "batchnorm.running_var2": (lambda: _bn_call(running_var=2), ShapeError),
    **{f"bn_relu_{op}.{case}": (_bn_relu_conv_call(op, **kwargs), error)
       for op in ("conv2d", "unpool_conv2d")
       for case, kwargs, error in [("mode", {"mode": "eval"}, ArgumentError),
                                   ("batch1", {"mode": "train", "b": 1}, BatchError),
                                   ("gamma2", {"gamma": 2}, ShapeError),
                                   ("strideTrue", {"stride": True}, ArgumentError)]},
    "bn_relu_unpool_conv2d.factor0": (_bn_relu_conv_call("unpool_conv2d", stride=0), ArgumentError),
    # an input that is an ndarray, not a Tensor
    "conv2d.ndarray": (lambda: nn.conv2d(np.zeros((1, 1, 4, 4)), conv_params(np.zeros((1, 1, 3, 3)))),
                       ArgumentError),
    "unpool.ndarray": (lambda: nn.unpool(np.zeros((1, 1, 2, 2)), 2), ArgumentError),
    "unpool_conv2d.ndarray": (lambda: nn.unpool_conv2d(np.zeros((1, 1, 4, 4)),
                                                       conv_params(np.zeros((1, 1, 3, 3)))),
                              ArgumentError),
    "batchnorm.ndarray": (lambda: nn.batchnorm(np.zeros((2, 1, 2, 2)), nn.BatchNormParams(
        T.full([1], 1.0), T.zeros([1]), T.zeros([1]), T.full([1], 1.0)), "infer"), ArgumentError),
    "bn_relu_conv2d.ndarray": (_bn_relu_conv_call("conv2d", tensor=False), ArgumentError),
    "bn_relu_unpool_conv2d.ndarray": (_bn_relu_conv_call("unpool_conv2d", tensor=False),
                                      ArgumentError),
    "linear.ndarray": (lambda: nn.linear(np.zeros((1, 2)), nn.LinearParams(T.zeros([4, 2]), None)),
                       ArgumentError),
    "bce_with_logits.ndarray": (lambda: nn.bce_with_logits(np.zeros((1, 2)), np.zeros((1, 2))),
                                ArgumentError),
    # a parameter field that is an ndarray, not a Tensor
    "conv2d.weights_ndarray": (lambda: nn.conv2d(T.zeros([1, 1, 4, 4]),
                                                 nn.Conv2dParams(np.zeros((1, 1, 3, 3)), None)),
                               ArgumentError),
    "conv2d.bias_ndarray": (lambda: nn.conv2d(T.zeros([1, 1, 4, 4]),
                                              nn.Conv2dParams(T.zeros([2, 1, 3, 3]), np.zeros(2))),
                            ArgumentError),
    "linear.weights_ndarray": (lambda: nn.linear(T.zeros([1, 2]),
                                                 nn.LinearParams(np.zeros((4, 2)), None)),
                               ArgumentError),
    "batchnorm.gamma_ndarray": (_bn_vectors_call(gamma=np.ones(3)), ArgumentError),
    # a running variance that infer mode cannot take the root of
    "batchnorm.running_var-1": (_bn_vectors_call(running_var=T.Tensor([1.0, -1.0, 1.0])),
                                NumericError),
    "batchnorm.running_varNaN": (_bn_vectors_call(running_var=T.Tensor([1.0, np.nan, 1.0])),
                                 NumericError),
    "bn_relu_conv2d.running_var-1": (
        _bn_vectors_call("bn_relu_conv2d", running_var=T.Tensor([1.0, -1.0, 1.0])), NumericError),
    # weights with a zero-size axis
    "conv2d.weights_kh0": (lambda: nn.conv2d(T.zeros([1, 1, 4, 4]),
                                             conv_params(np.zeros((1, 1, 0, 3)))), ShapeError),
    "conv2d.weights_cout0": (lambda: nn.conv2d(T.zeros([1, 1, 4, 4]),
                                               conv_params(np.zeros((0, 1, 3, 3)))), ShapeError),
    "unpool_conv2d.weights_kh0": (lambda: nn.unpool_conv2d(
        T.zeros([1, 1, 4, 4]), conv_params(np.zeros((1, 1, 0, 3)), None, 2)), ShapeError),
    "unpool_conv2d.weights_cout0": (lambda: nn.unpool_conv2d(
        T.zeros([1, 1, 4, 4]), conv_params(np.zeros((1, 0, 3, 3)), None, 2)), ShapeError),
    # a shape that is a bare int, not a sequence
    "tensor.zeros_int": (lambda: T.zeros(3), ShapeError),
    "tensor.full_int": (lambda: T.full(3, 1.0), ShapeError),
    "tensor.reshape_int": (lambda: T.reshape(T.zeros([2, 3]), 6), ShapeError),
    "networks.preset_list": (lambda: N.preset(["toy"]), ArgumentError),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_arguments_raise_typed_errors(case):
    call, error = BAD_ARGUMENTS[case]
    with pytest.raises(error):
        call()


def bn_params(c, gamma=None, beta=None, rmean=None, rvar=None):
    return nn.BatchNormParams(
        gamma=T.Tensor(np.ones(c) if gamma is None else gamma, requires_grad=True),
        beta=T.Tensor(np.zeros(c) if beta is None else beta, requires_grad=True),
        running_mean=T.Tensor(np.zeros(c) if rmean is None else rmean),
        running_var=T.Tensor(np.ones(c) if rvar is None else rvar),
    )


class TestBatchNorm:
    def test_normalized_input_is_fixed_point(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(16, 3, 4, 4))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        out = nn.batchnorm(T.Tensor(x), bn_params(3), "train")
        np.testing.assert_allclose(out.data, x, atol=1e-3)

    def test_train_output_mean_equals_beta(self):
        rng = np.random.default_rng(7)
        beta = np.array([0.5, -1.0])
        out = nn.batchnorm(T.Tensor(rng.normal(2.0, 3.0, size=(8, 2, 5, 5))),
                           bn_params(2, beta=beta), "train")
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), beta, atol=1e-6)

    def test_train_output_variance_equals_gamma_sq(self):
        # batch variance >> epsilon so the normalized variance is 1 to 1e-7
        rng = np.random.default_rng(8)
        gamma = np.array([2.0, 0.5])
        out = nn.batchnorm(T.Tensor(rng.normal(0.0, 10.0, size=(32, 2, 6, 6))),
                           bn_params(2, gamma=gamma), "train")
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), gamma**2, atol=1e-5)

    def test_infer_identity_statistics(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 3, 4, 4))
        out = nn.batchnorm(T.Tensor(x), bn_params(3), "infer")
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_running_statistics_updated(self):
        rng = np.random.default_rng(10)
        x = rng.normal(3.0, 2.0, size=(64, 1, 8, 8))
        p = bn_params(1)
        nn.batchnorm(T.Tensor(x), p, "train")
        assert abs(p.running_mean.data[0] - 0.1 * x.mean()) < 1e-12
        assert abs(p.running_var.data[0] - (0.9 + 0.1 * x.var())) < 1e-12

    def test_single_sample_train_rejected(self):
        with pytest.raises(BatchError):
            nn.batchnorm(T.zeros([1, 2, 3, 3]), bn_params(2), "train")

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        x_data = rng.normal(size=(4, 2, 3, 3))
        gamma = rng.uniform(0.5, 1.5, size=2)
        beta = rng.normal(size=2)

        def loss_from(xd, gd, bd):
            p = nn.BatchNormParams(
                gamma=T.Tensor(gd), beta=T.Tensor(bd),
                running_mean=T.zeros([2]), running_var=T.full([2], 1.0))
            return sum_all(T.sigmoid(nn.batchnorm(T.Tensor(xd), p, "train"))).item()

        p = bn_params(2, gamma=gamma, beta=beta)
        x = T.Tensor(x_data, requires_grad=True)
        with T.Graph():
            T.backward(sum_all(T.sigmoid(nn.batchnorm(x, p, "train"))))

        check_grad(lambda xd: loss_from(xd, gamma, beta), x_data, x.grad, n_coords=15, tol=1e-4)
        check_grad(lambda gd: loss_from(x_data, gd, beta), gamma, p.gamma.grad, n_coords=2, tol=1e-4)
        check_grad(lambda bd: loss_from(x_data, gamma, bd), beta, p.beta.grad, n_coords=2, tol=1e-4)

    def test_train_backward_writes_the_input_gradient_over_the_output_gradient(self, monkeypatch):
        rng = np.random.default_rng(12)
        x = T.Tensor(rng.normal(size=(2, 8, 64, 64)), requires_grad=True)
        budget = 16 * 8 * 64 * 8            # 16 rows of one image
        monkeypatch.setattr(nn, "_BLOCK_BYTES", budget)
        with T.Graph():
            loss = sum_all(nn.batchnorm(x, bn_params(8), "train"))
        _, _, peak = traced_bytes(lambda: T.backward(loss))
        # the output gradient, which becomes x's, one chunk of the x-hat
        # term, and numpy's iterator buffers, three at most for a ufunc on
        # a strided chunk with a per-channel operand; a product with x-hat
        # or a fresh d_x would take x's size
        bound = x.data.nbytes + budget + 24 * np.getbufsize() + SLACK
        assert peak <= bound < 2 * x.data.nbytes


def reference_batchnorm(x, gamma, beta, rmean, rvar, mode, og):
    """Batchnorm of [B,C,H,W] by the textbook formulas: the output
    gamma*x-hat + beta, the running statistics after the call, and the
    gradients of sum(og * output) in x, gamma and beta."""
    axes, shape = (0, 2, 3), (1, -1, 1, 1)
    g = gamma.reshape(shape)
    if mode == "train":
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        rmean = nn.BN_MOMENTUM * rmean + (1 - nn.BN_MOMENTUM) * mean.reshape(-1)
        rvar = nn.BN_MOMENTUM * rvar + (1 - nn.BN_MOMENTUM) * var.reshape(-1)
    else:
        mean, var = rmean.reshape(shape), rvar.reshape(shape)
    istd = 1.0 / np.sqrt(var + nn.BN_EPSILON)
    xhat = (x - mean) * istd
    out = g * xhat + beta.reshape(shape)
    d_gamma = (og * xhat).sum(axis=axes)
    d_beta = og.sum(axis=axes)
    d_xhat = og * g
    if mode == "train":
        n = x.size // x.shape[1]
        d_x = istd * (d_xhat - d_xhat.mean(axis=axes, keepdims=True)
                      - xhat * (d_xhat * xhat).sum(axis=axes, keepdims=True) / n)
    else:
        d_x = d_xhat * istd
    return out, rmean, rvar, d_x, d_gamma, d_beta


class TestBatchNormReference:
    """Batchnorm against the textbook formulas and finite differences."""

    @staticmethod
    def case(seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(1.5, 2.0, size=(3, 4, 5, 6))
        stats = dict(gamma=rng.uniform(0.5, 1.5, 4), beta=rng.normal(size=4),
                     rmean=rng.normal(size=4), rvar=rng.uniform(0.3, 3.0, 4))
        return x, stats, rng.normal(size=x.shape)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_matches_reference_formulas(self, mode):
        x_data, stats, og = self.case(31)
        ref = reference_batchnorm(x_data, *stats.values(), mode, og)

        p = bn_params(4, **stats)
        x = T.Tensor(x_data, requires_grad=True)
        with T.Graph():
            out = nn.batchnorm(x, p, mode)
            T.backward(sum_all(mul(out, og)))
        got = (out.data, p.running_mean.data, p.running_var.data, x.grad, p.gamma.grad, p.beta.grad)
        for name, a, b in zip("out rmean rvar d_x d_gamma d_beta".split(), got, ref):
            assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max(), name

    def test_infer_gradients_match_finite_differences(self):
        x_data, stats, _ = self.case(32)
        gamma, beta = stats["gamma"], stats["beta"]

        def loss_from(xd, gd, bd):
            p = bn_params(4, gd, bd, stats["rmean"], stats["rvar"])
            return sum_all(T.sigmoid(nn.batchnorm(T.Tensor(xd), p, "infer"))).item()

        p = bn_params(4, **stats)
        x = T.Tensor(x_data, requires_grad=True)
        with T.Graph():
            T.backward(sum_all(T.sigmoid(nn.batchnorm(x, p, "infer"))))

        check_grad(lambda xd: loss_from(xd, gamma, beta), x_data, x.grad, n_coords=15, tol=1e-4)
        check_grad(lambda gd: loss_from(x_data, gd, beta), gamma, p.gamma.grad,
                   coords=list(np.ndindex(4)), tol=1e-4)
        check_grad(lambda bd: loss_from(x_data, gamma, bd), beta, p.beta.grad,
                   coords=list(np.ndindex(4)), tol=1e-4)

    def test_two_batchnorms_of_one_input_meeting_in_an_add(self):
        # add hands one output gradient to both batchnorms, which write
        # their input gradients over what they receive: backward must give
        # each its own buffer
        x_data, stats, og = self.case(33)
        _, other, _ = self.case(34)
        x = T.Tensor(x_data, requires_grad=True)
        p1, p2 = bn_params(4, **stats), bn_params(4, **other)
        with T.Graph():
            out = T.add(nn.batchnorm(x, p1, "train"), nn.batchnorm(x, p2, "train"))
            T.backward(sum_all(mul(out, og)))
        ref1 = reference_batchnorm(x_data, *stats.values(), "train", og)
        ref2 = reference_batchnorm(x_data, *other.values(), "train", og)
        got = (x.grad, p1.gamma.grad, p1.beta.grad, p2.gamma.grad, p2.beta.grad)
        want = (ref1[3] + ref2[3], *ref1[4:], *ref2[4:])
        for name, a, b in zip("d_x d_gamma1 d_beta1 d_gamma2 d_beta2".split(), got, want):
            assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max(), name

        def loss_from(xd):
            out = T.add(nn.batchnorm(T.Tensor(xd), bn_params(4, **stats), "train"),
                        nn.batchnorm(T.Tensor(xd), bn_params(4, **other), "train"))
            return float((out.data * og).sum())

        check_grad(loss_from, x_data, x.grad, n_coords=15, tol=1e-4)


def by2(p):
    """`p` at stride 2: the unpool factor of ``unpool_conv2d`` whose
    composition is an unpool by 2, then `p`'s stride-1 conv."""
    return nn.Conv2dParams(p.weights, p.bias, 2, p.padding)


class TestBnReluConv:
    """The fused pre-activation unit against its composition
    ``conv(relu(batchnorm(x)))``, byte for byte."""

    FUSED = {"conv2d": lambda x, norm, mode, p: nn.bn_relu_conv2d(x, norm, mode, p),
             "unpool_conv2d": lambda x, norm, mode, p: nn.bn_relu_unpool_conv2d(x, norm, mode, by2(p))}
    COMPOSED = {"conv2d": lambda x, norm, mode, p: nn.conv2d(T.relu(nn.batchnorm(x, norm, mode)), p),
                "unpool_conv2d": lambda x, norm, mode, p: nn.unpool_conv2d(
                    T.relu(nn.batchnorm(x, norm, mode)), by2(p))}

    @staticmethod
    def case(k, seed=60, op="conv2d"):
        """Input [3,4,7,6], batchnorm statistics of 4 channels, and 3 x 4 x k x k
        weights, in `op`'s layout, and bias; beta straddles zero, so the ReLU cuts."""
        rng = np.random.default_rng(seed)
        x = rng.normal(1.0, 2.0, size=(3, 4, 7, 6))
        stats = dict(gamma=rng.uniform(0.5, 1.5, 4), beta=rng.normal(size=4),
                     rmean=rng.normal(size=4), rvar=rng.uniform(0.3, 3.0, 4))
        w = rng.normal(size=(3, 4, k, k)) * 0.5
        return x, stats, unpool_layout(w) if op == "unpool_conv2d" else w, rng.normal(size=3)

    @staticmethod
    def run(op, x_data, stats, w_data, b_data, stride, pad, mode):
        """Output, running statistics and the five gradients of sum(og * op)."""
        x = T.Tensor(x_data, requires_grad=True)
        norm = bn_params(4, **stats)
        p = conv_params(w_data, b_data, stride, pad)
        with T.Graph():
            out = op(x, norm, mode, p)
            og = T.Tensor(np.random.default_rng(61).normal(size=out.shape))
            T.backward(sum_all(mul(out, og)))
        return (out.data, norm.running_mean.data, norm.running_var.data,
                x.grad, norm.gamma.grad, norm.beta.grad, p.weights.grad, p.bias.grad)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("blocks", ["one", "rows"])
    @pytest.mark.parametrize("op, k, stride, pad", [
        ("conv2d", 3, 1, 1), ("conv2d", 3, 2, 1), ("conv2d", 1, 1, 0), ("conv2d", 5, 2, 2),
        ("conv2d", 3, 2, 0), ("unpool_conv2d", 5, 1, 2), ("unpool_conv2d", 1, 1, 0)])
    def test_matches_the_composition_byte_for_byte(self, op, k, stride, pad, blocks, mode,
                                                   monkeypatch):
        if blocks == "rows":
            # one output row per block, so blocks share input rows
            monkeypatch.setattr(nn, "_BLOCK_BYTES", 1)
        x, stats, w, b = self.case(k, op=op)
        fused = self.run(self.FUSED[op], x, stats, w, b, stride, pad, mode)
        composed = self.run(self.COMPOSED[op], x, stats, w, b, stride, pad, mode)
        names = "out rmean rvar d_x d_gamma d_beta d_w d_b".split()
        for name, got, want in zip(names, fused, composed):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_unpool_rows_of_a_one_column_input_match_the_composition_byte_for_byte(
            self, mode, monkeypatch):
        # one input row per block: the composition's rows are a strided view
        # of its ReLU output, the fused op's are fresh BN-ReLU rows, and a
        # matmul over this narrow a block rounds the two layouts apart
        monkeypatch.setattr(nn, "_BLOCK_BYTES", 1)
        rng = np.random.default_rng(61)
        x = rng.normal(1.0, 2.0, size=(3, 4, 6, 1))
        stats = dict(gamma=rng.uniform(0.5, 1.5, 4), beta=rng.normal(size=4),
                     rmean=rng.normal(size=4), rvar=rng.uniform(0.3, 3.0, 4))
        w, b = unpool_layout(rng.normal(size=(3, 4, 1, 1)) * 0.5), rng.normal(size=3)
        fused = self.run(self.FUSED["unpool_conv2d"], x, stats, w, b, 1, 0, mode)
        composed = self.run(self.COMPOSED["unpool_conv2d"], x, stats, w, b, 1, 0, mode)
        for got, want in zip(fused, composed):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", ["conv2d", "unpool_conv2d"])
    def test_gradients_match_finite_differences(self, op):
        x_data, stats, w_data, b_data = self.case(3, seed=62, op=op)
        gamma, beta = stats["gamma"], stats["beta"]
        out, _, _, d_x, d_gamma, d_beta, d_w, d_b = self.run(
            self.FUSED[op], x_data, stats, w_data, b_data, 1, 1, "train")
        og = np.random.default_rng(61).normal(size=out.shape)    # the one run() uses

        def loss(xd=x_data, gd=gamma, bd=beta, wd=w_data, cd=b_data):
            norm = bn_params(4, gd, bd, stats["rmean"], stats["rvar"])
            p = conv_params(wd, cd, 1, 1, grad=False)
            return float((self.FUSED[op](T.Tensor(xd), norm, "train", p).data * og).sum())

        check_grad(lambda a: loss(xd=a), x_data, d_x, n_coords=20, tol=1e-4)
        check_grad(lambda a: loss(gd=a), gamma, d_gamma, coords=list(np.ndindex(4)), tol=1e-4)
        check_grad(lambda a: loss(bd=a), beta, d_beta, coords=list(np.ndindex(4)), tol=1e-4)
        check_grad(lambda a: loss(wd=a), w_data, d_w, n_coords=20, tol=1e-4)
        check_grad(lambda a: loss(cd=a), b_data, d_b, coords=list(np.ndindex(3)), tol=1e-4)

    @pytest.mark.parametrize("op", ["conv2d", "unpool_conv2d"])
    def test_running_statistics_change_once_in_forward(self, op):
        x_data, stats, w_data, b_data = self.case(3, op=op)
        once = bn_params(4, **stats)
        nn.batchnorm(T.Tensor(x_data), once, "train")

        norm = bn_params(4, **stats)
        x = T.Tensor(x_data, requires_grad=True)
        with T.Graph():
            out = self.FUSED[op](x, norm, "train", conv_params(w_data, b_data, 1, 1))
            after_forward = (norm.running_mean.data.tobytes(), norm.running_var.data.tobytes())
            T.backward(sum_all(out))
        assert after_forward == (once.running_mean.data.tobytes(), once.running_var.data.tobytes())
        assert (norm.running_mean.data.tobytes(), norm.running_var.data.tobytes()) == after_forward

    @pytest.mark.parametrize("op", ["conv2d", "unpool_conv2d"])
    def test_untracked_input_and_batchnorm_get_no_gradient(self, op):
        x_data, stats, w_data, b_data = self.case(3, op=op)
        *_, d_w, d_b = self.run(self.COMPOSED[op], x_data, stats, w_data, b_data, 1, 1, "train")
        x = T.Tensor(x_data)
        norm = bn_params(4, **stats)
        for t in (norm.gamma, norm.beta):
            t.requires_grad = False
        p = conv_params(w_data, b_data, 1, 1)
        with T.Graph():
            out = self.FUSED[op](x, norm, "train", p)
            og = T.Tensor(np.random.default_rng(61).normal(size=out.shape))
            T.backward(sum_all(mul(out, og)))
        assert x.grad is None and norm.gamma.grad is None and norm.beta.grad is None
        assert p.weights.grad.tobytes() == d_w.tobytes() and p.bias.grad.tobytes() == d_b.tobytes()

    @pytest.mark.parametrize("op", ["conv2d", "unpool_conv2d"])
    def test_a_bad_conv_leaves_the_running_statistics(self, op):
        x_data, stats, _, _ = self.case(3)
        norm = bn_params(4, **stats)
        with pytest.raises(ShapeError):
            self.FUSED[op](T.Tensor(x_data), norm, "train", conv_params(np.zeros((3, 5, 3, 3))))
        assert np.array_equal(norm.running_mean.data, stats["rmean"])
        assert np.array_equal(norm.running_var.data, stats["rvar"])

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("op", ["conv2d", "unpool_conv2d"])
    def test_tape_keeps_one_activation(self, op, mode):
        rng = np.random.default_rng(63)
        x = T.Tensor(rng.normal(size=(2, 8, 16, 16)), requires_grad=True)
        norm = bn_params(8)
        w = rng.normal(size=(4, 8, 3, 3))
        p = conv_params(unpool_layout(w) if op == "unpool_conv2d" else w, rng.normal(size=(4,)),
                        padding=1)
        with T.Graph():
            out, kept, _ = traced_bytes(lambda: self.FUSED[op](x, norm, mode, p))
        # x-hat in train mode, nothing but the input by reference in infer mode;
        # the composition keeps x-hat and the ReLU output
        assert kept <= out.data.nbytes + x.data.nbytes + SLACK
        if mode == "infer":
            assert kept <= out.data.nbytes + SLACK

    def test_no_graph_forward_never_builds_the_whole_relu_output(self, monkeypatch):
        rng = np.random.default_rng(64)
        x = T.Tensor(rng.normal(size=(2, 16, 32, 32)))
        norm = bn_params(16)
        w = rng.normal(size=(4, 16, 3, 3))
        b = rng.normal(size=(4,))
        budget = 64 * 1024
        monkeypatch.setattr(nn, "_BLOCK_BYTES", budget)
        # both fused ops, each from an empty workspace
        for op, layout in (("conv2d", w), ("unpool_conv2d", unpool_layout(w))):
            p = conv_params(layout, b, padding=1, grad=False)
            drop_workspace()
            out, _, peak = traced_bytes(lambda: self.FUSED[op](x, norm, "infer", p))
            assert peak <= out.data.nbytes + 2 * budget + SLACK < out.data.nbytes + x.data.nbytes, op

    def test_train_backward_never_builds_the_whole_relu_output(self, monkeypatch):
        rng = np.random.default_rng(65)
        x = T.Tensor(rng.normal(size=(2, 16, 64, 64)), requires_grad=True)
        norm = bn_params(16)
        w = rng.normal(size=(2, 16, 3, 3))
        budget = 2 * 16 * 9 * 64 * 8        # two output rows of columns
        monkeypatch.setattr(nn, "_BLOCK_BYTES", budget)
        # both fused ops
        for op, layout in (("conv2d", w), ("unpool_conv2d", unpool_layout(w))):
            p = conv_params(layout, None, padding=1, grad=False)
            with T.Graph():
                out = self.FUSED[op](x, norm, "train", p)
                loss = sum_all(out)
            _, _, peak = traced_bytes(lambda: T.backward(loss))
            # the output gradient and the returned gradients, the ReLU's mask
            # as bools, a block's window and columns, and numpy's iterator
            # buffers for a strided add's operands; the ReLU output rebuilt
            # whole would take x's size beside the input gradient
            bound = (out.data.nbytes + x.data.nbytes + x.size + 2 * budget
                     + 16 * np.getbufsize() + SLACK)
            assert peak <= bound < out.data.nbytes + 2 * x.data.nbytes, op
            x.grad = None


class TestWorkspace:
    """The forward scratch of a pass with no graph (``nn._scratch``): reused
    across calls, never seen outside an op, never used under a graph."""

    OPS = {
        "conv2d": lambda x, norm, p: nn.conv2d(x, p),
        "bn_relu_conv2d": lambda x, norm, p: nn.bn_relu_conv2d(x, norm, "infer", p),
        "unpool_conv2d": lambda x, norm, p: nn.unpool_conv2d(x, p),
        "bn_relu_unpool_conv2d": lambda x, norm, p: nn.bn_relu_unpool_conv2d(x, norm, "infer", p),
    }

    @staticmethod
    def case(op, size, seed):
        """Input [2,4,size,size], infer batchnorm statistics, and 3x3 weights
        in `op`'s layout at stride 2 (so the plain convs' rows overlap, and
        the unpool's factor is 2) and padding 1."""
        rng = np.random.default_rng(seed)
        x = T.Tensor(rng.normal(1.0, 2.0, size=(2, 4, size, size)))
        norm = bn_params(4, rng.uniform(0.5, 1.5, 4), rng.normal(size=4), rng.normal(size=4),
                         rng.uniform(0.3, 3.0, 4))
        w = rng.normal(size=(3, 4, 3, 3))
        p = conv_params(unpool_layout(w) if "unpool" in op else w, rng.normal(size=(3,)), 2, 1,
                        grad=False)
        return x, norm, p

    @pytest.mark.parametrize("op", list(OPS))
    def test_row_blocks_give_the_same_bytes_with_and_without_a_graph(self, op, monkeypatch):
        # one output row per block, so blocks share input rows
        monkeypatch.setattr(nn, "_BLOCK_BYTES", 1)
        x, norm, p = self.case(op, 9, seed=80)
        with T.Graph():
            want = self.OPS[op](x, norm, p).data.tobytes()
        drop_workspace()
        cold = self.OPS[op](x, norm, p).data.tobytes()
        # a larger call leaves stale values in every buffer, beyond the borders
        # and the canvas the next call needs
        self.OPS[op](*self.case(op, 13, seed=81))
        warm = self.OPS[op](x, norm, p).data.tobytes()
        assert cold == want and warm == want

    @pytest.mark.parametrize("op", list(OPS))
    def test_a_forward_under_a_graph_drops_the_workspace_and_uses_none(self, op):
        for each in self.OPS:
            self.OPS[each](*self.case(each, 9, seed=82))
        assert workspace()
        x, norm, p = self.case("conv2d", 9, seed=82)
        p.weights.requires_grad = True
        with T.Graph():
            self.OPS[op](*self.case(op, 13, seed=83))
            assert workspace() == {}
            for each in self.OPS:
                self.OPS[each](*self.case(each, 13, seed=83))
            loss = sum_all(self.OPS["conv2d"](x, norm, p))
        # after the graph, as a train step runs it
        T.backward(loss)
        assert p.weights.grad is not None and workspace() == {}

    @pytest.mark.parametrize("op", list(OPS))
    def test_no_output_shares_the_workspace(self, op):
        drop_workspace()
        out = self.OPS[op](*self.case(op, 9, seed=84))
        assert workspace()
        assert not any(np.shares_memory(out.data, buf) for buf in workspace().values())

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("op", ["conv2d", "unpool_conv2d"])
    def test_second_call_allocates_only_its_output(self, op, bias, monkeypatch):
        rng = np.random.default_rng(85)
        if op == "conv2d":
            # a block per image: its padded rows and its 288 KiB of columns
            x = T.Tensor(rng.normal(size=(2, 16, 32, 32)))
            p = conv_params(rng.normal(size=(8, 16, 3, 3)), rng.normal(size=(8,)), 2, 1, grad=False)
            monkeypatch.setattr(nn, "_BLOCK_BYTES", 16 * 9 * 16 * 16 * 8)
            assert len(nn._blocks(2, 16, 16 * 9 * 16 * 8)) == 2
            run = lambda: nn.conv2d(x, p)  # noqa: E731
        else:
            # one block: its taps and its canvas
            x = T.Tensor(rng.normal(size=(2, 16, 8, 8)))
            p = conv_params(unpool_layout(rng.normal(size=(8, 16, 5, 5))), rng.normal(size=(8,)), 2, 2,
                            grad=False)
            run = lambda: nn.unpool_conv2d(x, p)  # noqa: E731
        if not bias:
            p.bias = None
        drop_workspace()
        run()
        out, kept, peak = traced_bytes(run)
        assert peak <= out.data.nbytes + SLACK
        assert kept <= out.data.nbytes + SLACK

    # 7x7 planes in runs of 167 channels, then 133; 64x64 in runs of two,
    # then one; 80x80, more than half of numpy's buffer size, one scalar
    # add per channel
    @pytest.mark.parametrize("c, side", [(300, 7), (5, 64), (3, 80)])
    def test_bias_add_matches_the_broadcast_add_and_allocates_nothing(self, c, side):
        rng = np.random.default_rng(86)
        x = rng.normal(size=(2, c, side, side))
        bias = rng.normal(size=c)
        want = (x + bias[None, :, None, None]).tobytes()
        drop_workspace()
        got = x.copy()
        nn._add_bias(got, bias)
        again = x.copy()
        _, kept, peak = traced_bytes(lambda: nn._add_bias(again, bias))
        assert got.tobytes() == want and again.tobytes() == want
        assert peak <= SLACK and kept <= SLACK


class TestLinear:
    def test_identity(self):
        x = T.Tensor([[1.0, -2.0, 3.0]])
        p = nn.LinearParams(T.Tensor(np.eye(3)), T.Tensor(np.zeros(3)))
        np.testing.assert_array_equal(nn.linear(x, p).data, x.data)

    def test_hand_value(self):
        p = nn.LinearParams(T.Tensor([[1.0, 1.0]]), T.Tensor([1.0]))
        assert nn.linear(T.Tensor([[2.0, 3.0]]), p).data.tolist() == [[6.0]]

    def test_paper_scale_shapes(self):
        rng = np.random.default_rng(12)
        p = nn.LinearParams(T.Tensor(rng.normal(size=(256, 512))), T.Tensor(np.zeros(256)))
        assert nn.linear(T.Tensor(rng.normal(size=(4, 512))), p).shape == (4, 256)

    def test_dimension_mismatch(self):
        p = nn.LinearParams(T.Tensor(np.zeros((2, 3))), None)
        with pytest.raises(ShapeError):
            nn.linear(T.Tensor([[1.0, 2.0]]), p)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        x_data = rng.normal(size=(3, 5))
        w_data = rng.normal(size=(4, 5))
        b_data = rng.normal(size=4)

        def loss_from(xd, wd, bd):
            p = nn.LinearParams(T.Tensor(wd), T.Tensor(bd))
            return sum_all(T.sigmoid(nn.linear(T.Tensor(xd), p))).item()

        x = T.Tensor(x_data, requires_grad=True)
        p = nn.LinearParams(T.Tensor(w_data, requires_grad=True),
                            T.Tensor(b_data, requires_grad=True))
        with T.Graph():
            T.backward(sum_all(T.sigmoid(nn.linear(x, p))))

        check_grad(lambda d: loss_from(d, w_data, b_data), x_data, x.grad, n_coords=10, tol=1e-4)
        check_grad(lambda d: loss_from(x_data, d, b_data), w_data, p.weights.grad, n_coords=10, tol=1e-4)
        check_grad(lambda d: loss_from(x_data, w_data, d), b_data, p.bias.grad, n_coords=4, tol=1e-4)


class TestBCE:
    def test_uniform_half_gives_ln2(self):
        g = np.array([0.0, 1.0, 1.0, 0.0])
        loss = nn.bce_with_logits(T.zeros([4]), g)    # sigmoid(0) = 0.5
        assert abs(loss.item() - np.log(2.0)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.bce_with_logits(T.zeros([2, 2]), np.zeros((3, 2)))

    def test_bce_with_logits_matches_probability_path(self):
        rng = np.random.default_rng(15)
        r = rng.normal(size=(5, 5)) * 3.0
        g = (rng.uniform(size=(5, 5)) > 0.4).astype(float)
        s = 1.0 / (1.0 + np.exp(-r))
        via_probs = -(g * np.log(s) + (1.0 - g) * np.log1p(-s)).mean()
        via_logits = nn.bce_with_logits(T.Tensor(r), g).item()
        assert abs(via_probs - via_logits) < 1e-9

    def test_bce_with_logits_gradient(self):
        rng = np.random.default_rng(16)
        r_data = rng.normal(size=(4, 4))
        g = (rng.uniform(size=(4, 4)) > 0.5).astype(float)
        r = T.Tensor(r_data, requires_grad=True)
        with T.Graph():
            T.backward(nn.bce_with_logits(r, g))
        check_grad(lambda d: nn.bce_with_logits(T.Tensor(d), g).item(),
                   r_data, r.grad, n_coords=10, tol=1e-4)

    def test_stability_across_extreme_logits(self):
        r = np.linspace(-50.0, 50.0, 101)
        g = (np.arange(101) % 2).astype(float)
        via_logits = nn.bce_with_logits(T.Tensor(r), g)
        assert np.isfinite(via_logits.item())
        rt = T.Tensor(r, requires_grad=True)
        with T.Graph():
            T.backward(nn.bce_with_logits(rt, g))
        assert np.all(np.isfinite(rt.grad))
