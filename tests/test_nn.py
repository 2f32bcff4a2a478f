import numpy as np
import pytest

from racdnn import nn
from racdnn import tensor as T
from racdnn.errors import ArgumentError, BatchError, ShapeError

from gradcheck import check_grad
from memory import SLACK, traced_bytes
from ops import mul, sum_all


def conv_params(w, b=None, stride=1, padding=0, grad=True):
    return nn.Conv2dParams(
        weights=T.Tensor(w, requires_grad=grad),
        bias=None if b is None else T.Tensor(b, requires_grad=grad),
        stride=stride,
        padding=padding,
    )


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
    def grads(op, x_data, w_data, b_data, pad):
        """Output and gradients of sum_all(sigmoid(op(x, p))), a loss separable per image."""
        x = T.Tensor(x_data, requires_grad=True)
        p = conv_params(w_data, b_data, padding=pad)
        with T.Graph():
            out = op(x, p)
            T.backward(sum_all(T.sigmoid(out)))
        return out.data, x.grad, p.weights.grad, None if b_data is None else p.bias.grad

    @staticmethod
    def data(kernel, seed, b=3):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(b, 2, 4, 5)), rng.normal(size=(3, 2, kernel, kernel)) * 0.5,
                rng.normal(size=(3,)))

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("k, kernel, pad",
                             [(2, 5, 2), (2, 3, 1), (2, 1, 0), (3, 3, 0), (3, 5, 2), (2, 3, 2),
                              (2, 1, 1)])
    def test_matches_unpool_then_conv2d(self, k, kernel, pad, bias):
        x_data, w_data, b_data = self.data(kernel, 20)
        b_data = b_data if bias else None
        fused = self.grads(lambda x, p: nn.unpool_conv2d(x, p, k), x_data, w_data, b_data, pad)
        composed = self.grads(lambda x, p: nn.conv2d(nn.unpool(x, k), p), x_data, w_data, b_data, pad)
        assert fused[0].shape == composed[0].shape
        for got, want in zip(fused, composed):
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k, kernel, pad", [(2, 5, 2), (3, 3, 0)])
    def test_gradients_match_finite_differences(self, k, kernel, pad):
        x_data, w_data, b_data = self.data(kernel, 21)
        _, d_x, d_w, d_b = self.grads(lambda x, p: nn.unpool_conv2d(x, p, k),
                                      x_data, w_data, b_data, pad)

        def loss(xd, wd, bd):
            p = conv_params(wd, bd, padding=pad, grad=False)
            return sum_all(T.sigmoid(nn.unpool_conv2d(T.Tensor(xd), p, k))).item()

        check_grad(lambda xd: loss(xd, w_data, b_data), x_data, d_x, n_coords=30, tol=1e-4)
        check_grad(lambda wd: loss(x_data, wd, b_data), w_data, d_w, n_coords=20, tol=1e-4)
        check_grad(lambda bd: loss(x_data, w_data, bd), b_data, d_b, n_coords=3, tol=1e-4)

    def test_batch_gradient_is_sum_of_single_image_gradients(self):
        x_data, w_data, b_data = self.data(5, 22)
        op = lambda x, p: nn.unpool_conv2d(x, p, 2)  # noqa: E731
        _, d_x, d_w, d_b = self.grads(op, x_data, w_data, b_data, 2)
        singles = [self.grads(op, x_data[i:i + 1], w_data, b_data, 2) for i in range(3)]
        np.testing.assert_allclose(d_w, sum(g[2] for g in singles), rtol=1e-12)
        np.testing.assert_allclose(d_b, sum(g[3] for g in singles), rtol=1e-12)
        np.testing.assert_allclose(d_x, np.concatenate([g[1] for g in singles]), rtol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            nn.unpool_conv2d(T.zeros([1, 2, 4, 4]), conv_params(np.zeros((1, 3, 3, 3))), 2)


def _conv_call(stride=1, padding=0):
    return lambda: nn.conv2d(T.zeros([1, 1, 4, 4]), conv_params(np.zeros((1, 1, 3, 3)), None,
                                                                  stride, padding))


def _unpool_conv_call(k=2, stride=1, padding=0):
    return lambda: nn.unpool_conv2d(T.zeros([1, 1, 4, 4]),
                                    conv_params(np.zeros((1, 1, 3, 3)), None, stride, padding), k)


BAD_ARGUMENTS = {
    "conv2d.stride0": (_conv_call(stride=0), ArgumentError),
    "conv2d.stride-1": (_conv_call(stride=-1), ArgumentError),
    "conv2d.stride1.5": (_conv_call(stride=1.5), ArgumentError),
    "conv2d.padding-1": (_conv_call(padding=-1), ArgumentError),
    "conv2d.weights3d": (lambda: nn.conv2d(T.zeros([1, 1, 4, 4]), conv_params(np.zeros((1, 3, 3)))),
                         ShapeError),
    "unpool.factor1.5": (lambda: nn.unpool(T.zeros([1, 1, 2, 2]), 1.5), ArgumentError),
    "unpool.factor-1": (lambda: nn.unpool(T.zeros([1, 1, 2, 2]), -1), ArgumentError),
    "unpool_conv2d.stride0": (_unpool_conv_call(stride=0), ArgumentError),
    "unpool_conv2d.stride-1": (_unpool_conv_call(stride=-1), ArgumentError),
    "unpool_conv2d.stride2": (_unpool_conv_call(stride=2), ArgumentError),
    "unpool_conv2d.padding-1": (_unpool_conv_call(padding=-1), ArgumentError),
    "unpool_conv2d.factor0": (_unpool_conv_call(k=0), ArgumentError),
    "unpool_conv2d.factor1.5": (_unpool_conv_call(k=1.5), ArgumentError),
    "unpool_conv2d.weights3d": (lambda: nn.unpool_conv2d(T.zeros([1, 1, 4, 4]),
                                                         conv_params(np.zeros((1, 3, 3))), 2),
                                ShapeError),
    "linear.weights1d": (lambda: nn.linear(T.zeros([1, 2]), nn.LinearParams(T.zeros([2]), None)),
                         ShapeError),
    "batchnorm.mode": (lambda: nn.batchnorm(T.zeros([2, 1, 2, 2]), nn.BatchNormParams(
        T.full([1], 1.0), T.zeros([1]), T.zeros([1]), T.full([1], 1.0)), "eval"), ArgumentError),
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
