import numpy as np
import pytest

from racdnn import attention as at
from racdnn import networks as N
from racdnn import nn
from racdnn import tensor as T
from racdnn.errors import ArgumentError, ShapeError

from gradcheck import central_diff, central_diff_refined, rel_error
from ops import mul, sum_all


def make_nets(name="tiny", seed=0):
    p = N.preset(name)
    rng = np.random.default_rng(seed)
    return p, N.InitialNet(p, rng), N.RefineNet(p, rng)


def rand_images(p, b=2, seed=1):
    return T.Tensor(np.random.default_rng(seed).uniform(size=(b, 3, p.input_size, p.input_size)))


# one unbatched input per batched-only op: an image, patch or map without
# its batch axis, a vector or window row without one, or a grid without one
UNBATCHED = {
    "conv2d": lambda: nn.conv2d(T.zeros([3, 5, 5]), nn.Conv2dParams(T.zeros([1, 3, 1, 1]), None)),
    "unpool": lambda: nn.unpool(T.zeros([1, 2, 2]), 2),
    "batchnorm": lambda: nn.batchnorm(T.zeros([2, 3]), nn.BatchNormParams(
        T.full([3], 1.0), T.zeros([3]), T.zeros([3]), T.full([3], 1.0)), "infer"),
    "unpool_conv2d": lambda: nn.unpool_conv2d(T.zeros([1, 2, 2]),
                                              nn.Conv2dParams(T.zeros([1, 1, 1, 1]), None), 2),
    "linear": lambda: nn.linear(T.zeros([2]), nn.LinearParams(T.zeros([1, 2]), None)),
    "bilinear_sample.source": lambda: at.bilinear_sample(T.zeros([1, 4, 4]), np.zeros((1, 2, 2, 2))),
    "bilinear_sample.grid": lambda: at.bilinear_sample(T.zeros([1, 1, 4, 4]), np.zeros((2, 2, 2))),
    "affine_grid": lambda: at.affine_grid(T.Tensor([1.0, 0.0, 0.0]), 2, 2),
    "constrain_attention": lambda: at.constrain_attention(T.zeros([3])),
    "inverse_support": lambda: at.inverse_support(T.Tensor([1.0, 0.0, 0.0]), 2, 2, 2, 2),
    "InitialNet.images": lambda: make_nets()[1].forward_raw(T.zeros([3, 16, 16])),
    "RefineNet.images": lambda: make_nets()[2].run_refinement(T.zeros([3, 16, 16]),
                                                             T.zeros([1, 1, 16, 16])),
    "RefineNet.r0": lambda: make_nets()[2].run_refinement(T.zeros([1, 3, 16, 16]),
                                                         T.zeros([1, 16, 16])),
}


@pytest.mark.parametrize("op", sorted(UNBATCHED))
def test_unbatched_input_rejected(op):
    with pytest.raises(ShapeError):
        UNBATCHED[op]()


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ArgumentError):
            N.preset("huge")

    # code_channels, code_size, map_size
    @pytest.mark.parametrize("name,sizes", [("paper", (256, 7, 56)), ("toy", (32, 4, 32)),
                                            ("tiny", (8, 4, 16))], ids=["paper", "toy", "tiny"])
    def test_derived_sizes(self, name, sizes):
        p = N.preset(name)
        assert (p.code_channels, p.code_size, p.map_size) == sizes

    # the layer tables with every value spelled out: (c_in, c_out, kernel,
    # stride, pad) per encoder layer, (c_in, c_mid, c_out) per decoder block
    EXPLICIT_TABLES = {
        "paper": (((3, 64, 5, 2, 2), (64, 128, 3, 2, 1), (128, 256, 3, 2, 1),
                   (256, 256, 3, 2, 1), (256, 256, 3, 2, 1)),
                  ((256, 128, 128), (128, 64, 64), (64, 32, 1))),
        "toy": (((3, 16, 5, 2, 2), (16, 24, 3, 2, 1), (24, 32, 3, 2, 1), (32, 32, 3, 2, 1)),
                ((32, 24, 24), (24, 16, 16), (16, 8, 1))),
        "tiny": (((3, 8, 3, 2, 1), (8, 8, 3, 2, 1)), ((8, 8, 8), (8, 4, 1))),
    }

    @pytest.mark.parametrize("name", sorted(EXPLICIT_TABLES))
    def test_every_conv_matches_the_explicit_tables(self, name):
        encoder, decoder = self.EXPLICIT_TABLES[name]
        # (unpooled input, weight shape, stride, padding, batchnorm) per conv
        want_enc = [(False, (co, ci, k, k), s, pd, True) for ci, co, k, s, pd in encoder]
        want_dec = []
        for i, (ci, cm, co) in enumerate(decoder):
            want_dec += [(True, (cm, ci, 5, 5), 1, 2, True),
                         (False, (co, cm, 1, 1), 1, 0, i < len(decoder) - 1)]

        def geometry(stack):
            return [(isinstance(layer, N.UnpoolConvLayer), layer.conv.weights.shape,
                     layer.conv.stride, layer.conv.padding, layer.norm is not None)
                    for layer in stack.layers]

        _, init, refine = make_nets(name)
        for stack in (init.encoder, refine.context, refine.encoder):
            assert geometry(stack) == want_enc
        for stack in (init.decoder, refine.decoder):
            assert geometry(stack) == want_dec
            final = stack.layers[-1]
            assert final.norm is None and final.conv.weights.shape[0] == 1
        c = encoder[-1][1]
        for conv in (refine.w1_i, refine.w1_r):
            assert (conv.weights.shape, conv.stride, conv.padding) == ((c, c, 3, 3), 1, 1)

    @pytest.mark.parametrize("name,map_size", [("tiny", 16), ("toy", 32)])
    def test_map_sizes(self, name, map_size):
        p, init, _ = make_nets(name)
        r0, s = init.initial_saliency(rand_images(p))
        assert r0.shape == (2, 1, map_size, map_size)
        assert np.all((s.data > 0.0) & (s.data < 1.0))

    def test_paper_preset_shape_algebra(self):
        p, init, _ = make_nets("paper")
        img = T.Tensor(np.random.default_rng(2).uniform(size=(1, 3, 224, 224)))
        code = init.encoder(img, "infer")
        assert code.shape == (1, 256, 7, 7)
        r0, _ = init.initial_saliency(img)
        assert r0.shape == (1, 1, 56, 56)

    def test_paper_recurrent_state_shapes(self):
        p, _, refine = make_nets("paper")
        img = T.Tensor(np.random.default_rng(3).uniform(size=(1, 3, 224, 224)))
        (h1, h2), tau = refine.init_state(img)
        assert h1.shape == (1, 256, 7, 7)
        assert h2.shape == (1, 512)
        assert refine.loc1.weights.shape == (256, 512)
        assert refine.loc2.weights.shape == (3, 256)

    def test_wrong_input_size_rejected(self):
        p, init, _ = make_nets("tiny")
        with pytest.raises(ShapeError):
            init.initial_saliency(T.zeros([1, 3, 17, 17]))


class TestInitialNet:
    def test_zero_final_layer_gives_half(self):
        p, init, _ = make_nets("tiny")
        final = init.decoder.layers[-1]
        final.conv.weights.data[:] = 0.0
        final.conv.bias.data[:] = 0.0
        _, s = init.initial_saliency(rand_images(p))
        np.testing.assert_array_equal(s.data, np.full_like(s.data, 0.5))

    def test_forward_deterministic_for_seed(self):
        p = N.preset("tiny")
        imgs = rand_images(p)
        outs = []
        for _ in range(2):
            init = N.InitialNet(p, np.random.default_rng(7))
            outs.append(init.initial_saliency(imgs)[1].data)
        assert outs[0].tobytes() == outs[1].tobytes()


class TestRefineNetSteps:
    def test_init_state_window_valid(self):
        p, _, refine = make_nets("toy", seed=3)
        (_, _), tau = refine.init_state(rand_images(p, seed=4))
        a_s, a_tx, a_ty = tau.data[0]
        assert 0.2 <= a_s <= 1.0
        assert abs(a_tx) + a_s <= 1.0 + 1e-12
        assert abs(a_ty) + a_s <= 1.0 + 1e-12

    def test_attend_identity_window(self):
        p, _, refine = make_nets("tiny")
        imgs = rand_images(p)
        out = refine.attend(imgs, T.Tensor(np.tile([1.0, 0.0, 0.0], (2, 1))))
        np.testing.assert_array_equal(out.data, imgs.data)

    def test_attend_center_crop_matches_reference_interpolator(self):
        p, _, refine = make_nets("toy")
        imgs = rand_images(p, b=1, seed=5)
        out = refine.attend(imgs, T.Tensor(np.array([[0.5, 0.0, 0.0]])))

        # independent loop-based bilinear interpolation at the same points
        n = p.input_size
        src = imgs.data[0]
        expected = np.zeros_like(src)
        for j in range(n):
            for i in range(n):
                gx = 0.5 * (-1.0 + 2.0 * i / (n - 1))
                gy = 0.5 * (-1.0 + 2.0 * j / (n - 1))
                px = (gx + 1.0) * 0.5 * (n - 1)
                py = (gy + 1.0) * 0.5 * (n - 1)
                x0, y0 = int(np.floor(px)), int(np.floor(py))
                fx, fy = px - x0, py - y0
                for c in range(3):
                    v = 0.0
                    for dx, dy, wgt in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                                        (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
                        xx, yy = x0 + dx, y0 + dy
                        if 0 <= xx < n and 0 <= yy < n:
                            v += wgt * src[c, yy, xx]
                    expected[c, j, i] = v
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_attend_out_of_range_regressor_safe(self):
        p, _, refine = make_nets("tiny")
        tau = at.constrain_attention(T.Tensor(np.array([[555.0, -999.0, 999.0],
                                                        [-40.0, 18.0, -3.0]])))
        out = refine.attend(rand_images(p), tau)
        assert np.all(np.isfinite(out.data))
        assert np.all(tau.data[:, 0] >= 0.2) and np.all(tau.data[:, 0] <= 1.0)

    def test_conv_recurrent_zero_weights(self):
        p, _, refine = make_nets("tiny")
        refine.w1_i.weights.data[:] = 0.0
        refine.w1_i.bias.data[:] = 0.0
        refine.w1_r.weights.data[:] = 0.0
        z = T.Tensor(np.random.default_rng(6).normal(size=(2, p.code_channels, 4, 4)))
        h = refine.conv_recurrent_step(z, T.Tensor(np.ones((2, p.code_channels, 4, 4))))
        assert np.all(h.data == 0.0)

    def test_conv_recurrent_ignores_wr_when_state_zero(self):
        p, _, refine = make_nets("tiny", seed=8)
        z = T.Tensor(np.random.default_rng(9).normal(size=(2, p.code_channels, 4, 4)))
        h_zero = T.zeros([2, p.code_channels, 4, 4])
        out1 = refine.conv_recurrent_step(z, h_zero).data
        refine.w1_r.weights.data[:] = np.random.default_rng(10).normal(
            size=refine.w1_r.weights.shape)
        out2 = refine.conv_recurrent_step(z, h_zero).data
        np.testing.assert_array_equal(out1, out2)

    def test_fc_recurrent_shapes_and_zero_weights(self):
        p, _, refine = make_nets("toy")
        h1 = T.Tensor(np.random.default_rng(11).normal(size=(2, p.code_channels, 4, 4)))
        h2 = refine.fc_recurrent_step(h1, None)
        assert h2.shape == (2, p.state_dim)
        refine.w2_i.weights.data[:] = 0.0
        refine.w2_i.bias.data[:] = 0.0
        refine.w2_r.weights.data[:] = 0.0
        out = refine.fc_recurrent_step(h1, T.Tensor(np.ones((2, p.state_dim))))
        assert np.all(out.data == 0.0)

    def test_recurrent_steps_gradients(self):
        p, _, refine = make_nets("tiny", seed=12)
        rng = np.random.default_rng(13)
        z_data = rng.normal(size=(2, p.code_channels, 4, 4))
        h_data = rng.normal(size=(2, p.code_channels, 4, 4))

        def f(zd, hd):
            out = refine.conv_recurrent_step(T.Tensor(zd), T.Tensor(hd))
            return float((out.data ** 2).sum())

        z = T.Tensor(z_data, requires_grad=True)
        h = T.Tensor(h_data, requires_grad=True)
        with T.Graph():
            out = refine.conv_recurrent_step(z, h)
            T.backward(sum_all(mul(out, out)))
        for tensor, data, wrap in ((z, z_data, lambda d: f(d, h_data)),
                                   (h, h_data, lambda d: f(z_data, d))):
            flat = np.random.default_rng(14).choice(data.size, 5, replace=False)
            for k in flat:
                idx = np.unravel_index(k, data.shape)
                num = central_diff(wrap, data, idx)
                assert rel_error(tensor.grad[idx], num) < 1e-3

    def test_localize_zero_weights_gives_centered_default(self):
        p, _, refine = make_nets("tiny")
        for lin in (refine.loc1, refine.loc2):
            lin.weights.data[:] = 0.0
            lin.bias.data[:] = 0.0
        tau = refine.localize(T.Tensor(np.random.default_rng(15).normal(size=(3, p.state_dim))))
        np.testing.assert_allclose(tau.data, np.tile([0.6, 0.0, 0.0], (3, 1)), atol=1e-15)

    def test_localize_distinct_states_distinct_windows(self):
        p, _, refine = make_nets("toy", seed=16)
        h2 = T.Tensor(np.random.default_rng(17).normal(size=(4, p.state_dim)))
        tau = refine.localize(h2).data
        assert len({tuple(row.round(9)) for row in tau}) == 4


class TestRefineStep:
    def test_zero_decoder_leaves_map_unchanged(self):
        p, _, refine = make_nets("tiny", seed=18)
        for layer in refine.decoder.layers:
            if hasattr(layer, "conv"):
                layer.conv.weights.data[:] = 0.0
                layer.conv.bias.data[:] = 0.0
                if layer.norm is not None:
                    layer.norm.beta.data[:] = 0.0
        r_prev = T.Tensor(np.random.default_rng(19).normal(size=(2, 1, 16, 16)))
        h1 = T.Tensor(np.random.default_rng(20).normal(size=(2, p.code_channels, 4, 4)))
        tau = T.Tensor(np.tile([0.5, 0.1, -0.2], (2, 1)))
        r_new = refine.refine_step(r_prev, h1, tau)
        assert r_new.data.tobytes() == r_prev.data.tobytes()

    def test_top_left_window_leaves_bottom_right_untouched(self):
        p, _, refine = make_nets("tiny", seed=21)
        m = p.map_size
        r_prev = T.Tensor(np.random.default_rng(22).normal(size=(2, 1, m, m)))
        h1 = T.Tensor(np.random.default_rng(23).normal(size=(2, p.code_channels, 4, 4)))
        tau = T.Tensor(np.tile([0.5, -0.5, -0.5], (2, 1)))
        r_new = refine.refine_step(r_prev, h1, tau)
        support = at.inverse_support(tau, m, m, m, m)[:, None]
        np.testing.assert_array_equal(r_new.data[~support], r_prev.data[~support])
        q = m // 2 + 2
        assert r_new.data[:, :, q:, q:].tobytes() == r_prev.data[:, :, q:, q:].tobytes()

    def test_identity_window_can_touch_everything(self):
        p, _, refine = make_nets("toy", seed=24)
        m = p.map_size
        r_prev = T.Tensor(np.zeros((1, 1, m, m)))
        h1 = T.Tensor(np.random.default_rng(25).normal(size=(1, p.code_channels, 4, 4)))
        tau = T.Tensor(np.array([[1.0, 0.0, 0.0]]))
        r_new = refine.refine_step(r_prev, h1, tau)
        assert np.mean(r_new.data != 0.0) > 0.95


class TestRunRefinement:
    def test_n1_returns_sigmoid_of_initial(self):
        p, init, refine = make_nets("tiny", seed=26)
        imgs = rand_images(p, seed=27)
        r0, s0 = init.initial_saliency(imgs)
        s_r, trace = refine.run_refinement(imgs, r0, n=1)
        np.testing.assert_array_equal(s_r.data, s0.data)
        assert len(trace) == 1

    @pytest.mark.parametrize("n", [2, 4])
    def test_trace_length_equals_n(self, n):
        p, init, refine = make_nets("tiny", seed=28)
        imgs = rand_images(p, seed=29)
        r0, _ = init.initial_saliency(imgs)
        _, trace = refine.run_refinement(imgs, r0, n=n)
        assert len(trace) == n
        assert len(trace.windows) == n
        np.testing.assert_array_equal(trace.windows[0], np.tile([1.0, 0.0, 0.0], (2, 1)))

    def test_locality_all_iterations(self):
        p, init, refine = make_nets("toy", seed=30)
        imgs = rand_images(p, seed=31)
        r0, _ = init.initial_saliency(imgs)
        _, trace = refine.run_refinement(imgs, r0, n=5)
        m = p.map_size
        for i in range(1, len(trace)):
            support = at.inverse_support(T.Tensor(trace.windows[i]), m, m, m, m)[:, None]
            before, after = trace.maps[i - 1], trace.maps[i]
            np.testing.assert_array_equal(after[~support], before[~support])

    def test_weight_sharing_across_iterations(self):
        p, init, refine = make_nets("tiny", seed=32)
        imgs = rand_images(p, seed=33)
        r0, _ = init.initial_saliency(imgs)
        _, base = refine.run_refinement(imgs, r0, n=4)
        refine.w1_i.weights.data += 0.5
        _, bumped = refine.run_refinement(imgs, r0, n=4)
        for i in range(1, 4):
            assert not np.array_equal(base.maps[i], bumped.maps[i])

    def test_rollout_deterministic(self):
        outs = []
        for _ in range(2):
            p, init, refine = make_nets("toy", seed=34)
            imgs = rand_images(p, seed=35)
            r0, _ = init.initial_saliency(imgs)
            s_r, _ = refine.run_refinement(imgs, r0, n=4)
            outs.append(s_r.data)
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_invalid_n(self):
        p, init, refine = make_nets("tiny")
        imgs = rand_images(p)
        r0, _ = init.initial_saliency(imgs)
        for n in (0, 2.5, "3"):
            with pytest.raises(ArgumentError):
                refine.run_refinement(imgs, r0, n=n)

    def test_decoder_weight_transfer(self):
        p, init, refine = make_nets("toy", seed=36)
        refine.load_decoder_from(init)
        mine = dict(refine.decoder.tensors())
        theirs = dict(init.decoder.tensors())
        for key in mine:
            np.testing.assert_array_equal(mine[key].data, theirs[key].data)
            assert mine[key].data is not theirs[key].data


class TestFusedDecoder:
    @staticmethod
    def composed_decoder(decoder, x, mode):
        """The decoder as nn.unpool, then nn.conv2d, over the same parameters."""
        for layer in decoder.layers:
            if isinstance(layer, N.UnpoolConvLayer):
                x = nn.unpool(x, 2)
            x = nn.conv2d(x, layer.conv)
            if layer.norm is not None:
                x = T.relu(nn.batchnorm(x, layer.norm, mode))
        return x

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_decoder_never_unpools_and_matches_composition(self, mode, monkeypatch):
        p, init, refine = make_nets("tiny", seed=50)
        imgs = rand_images(p, seed=51)
        code = init.encoder(imgs, mode)
        want = self.composed_decoder(init.decoder, code, mode).data

        def no_unpool(*args, **kwargs):
            raise AssertionError("the decoder built an unpooled tensor")

        monkeypatch.setattr(nn, "unpool", no_unpool)
        np.testing.assert_allclose(init.decoder(code, mode).data, want, rtol=0, atol=1e-12)
        r0 = init.forward_raw(imgs, mode)
        s_r, _ = refine.run_refinement(imgs, r0, n=3, mode=mode)
        assert np.all(np.isfinite(s_r.data))


class TestFullPipelineGradient:
    def test_every_refinement_parameter_matches_finite_differences(self):
        """End-to-end check on the 16x16 preset: BCE of the rollout output
        against a fixed target, gradient of every trainable tensor."""
        p, init, refine = make_nets("tiny", seed=40)
        imgs = rand_images(p, b=2, seed=41)
        rng = np.random.default_rng(42)
        target = (rng.uniform(size=(2, 1, 16, 16)) > 0.5).astype(float)
        r0_data = init.forward_raw(imgs, "infer").data  # frozen first stage

        def forward_loss() -> float:
            s_r, trace = refine.run_refinement(imgs, T.Tensor(r0_data), n=3, mode="train")
            return N.refinement_loss(trace.raw_final, target).item()

        params = refine.parameters()
        T.zero_grads(params)
        with T.Graph():
            s_r, trace = refine.run_refinement(imgs, T.Tensor(r0_data), n=3, mode="train")
            loss = N.refinement_loss(trace.raw_final, target)
            T.backward(loss)

        coord_rng = np.random.default_rng(43)
        checked = 0
        for name, tensor in params.items():
            assert tensor.grad is not None, f"no gradient reached {name}"
            flat_choices = coord_rng.choice(tensor.size, size=min(2, tensor.size), replace=False)
            data = tensor.data
            for k in flat_choices:
                idx = np.unravel_index(k, tensor.shape)

                def f(perturbed, _t=tensor, _orig=data):
                    _t.data = perturbed
                    try:
                        return forward_loss()
                    finally:
                        _t.data = _orig

                numeric, err = central_diff_refined(f, data, idx, float(tensor.grad[idx]), tol=1e-3)
                assert err <= 1e-3, f"{name}[{idx}]: analytic {tensor.grad[idx]:.6g} vs numeric {numeric:.6g} (rel {err:.2g})"
                checked += 1
        assert checked >= 20
