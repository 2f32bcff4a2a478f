import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from racdnn import attention as at
from racdnn import networks as N
from racdnn import nn
from racdnn import tensor as T
from racdnn.errors import ArgumentError, BatchError, ShapeError

from gradcheck import central_diff, central_diff_refined, rel_error
from memory import SLACK, drop_workspace, traced_bytes, workspace
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
                                              nn.Conv2dParams(T.zeros([1, 1, 1, 1]), None, 2)),
    "linear": lambda: nn.linear(T.zeros([2]), nn.LinearParams(T.zeros([1, 2]), None)),
    "bilinear_sample.source": lambda: at.bilinear_sample(T.zeros([1, 4, 4]), np.zeros((1, 4)), 2),
    "bilinear_sample.grid": lambda: at.bilinear_sample(T.zeros([1, 1, 4, 4]), np.zeros(4), 2),
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


# an ndarray where a network takes a Tensor
NOT_TENSORS = {
    "InitialNet.images": lambda: make_nets()[1].forward_raw(np.zeros((1, 3, 16, 16))),
    "RefineNet.images": lambda: make_nets()[2].run_refinement(np.zeros((1, 3, 16, 16)),
                                                             T.zeros([1, 1, 16, 16])),
    "RefineNet.r0": lambda: make_nets()[2].run_refinement(T.zeros([1, 3, 16, 16]),
                                                         np.zeros((1, 1, 16, 16))),
}


@pytest.mark.parametrize("arg", sorted(NOT_TENSORS))
def test_array_for_a_tensor_rejected(arg):
    with pytest.raises(ArgumentError, match=arg.split(".")[1]):
        NOT_TENSORS[arg]()


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
        # (unpooled input, weight shape, stride, padding, batchnorm, bias)
        # per conv: a bias exactly where no batchnorm follows; an unpooled
        # input's weights are [C_in, C_out, 5, 5] at stride 2, the unpool factor
        want_enc = [(False, (co, ci, k, k), s, pd, True, False) for ci, co, k, s, pd in encoder]
        want_dec = []
        for i, (ci, cm, co) in enumerate(decoder):
            last = i == len(decoder) - 1
            want_dec += [(True, (ci, cm, 5, 5), 2, 2, True, False),
                         (False, (co, cm, 1, 1), 1, 0, not last, last)]

        def geometry(stack):
            return [(isinstance(layer, N.UnpoolConvLayer), layer.conv.weights.shape,
                     layer.conv.stride, layer.conv.padding, layer.norm is not None,
                     layer.conv.bias is not None)
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
        # the recurrent input conv's bias serves both terms of the sum
        assert refine.w1_i.bias is not None and refine.w1_r.bias is None

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

    def test_train_tape_keeps_one_activation_per_conv(self):
        p, init, _ = make_nets("toy")
        imgs = rand_images(p)
        with T.Graph() as g:
            _, kept, _ = traced_bytes(lambda: init.forward_raw(imgs, "train"))
        # float64 output bytes of each conv layer, from the layer shapes
        activations = (conv_outputs(init.encoder, p.input_size, 2)
                       + conv_outputs(init.decoder, p.code_size, 2))
        code = activations[len(init.encoder.layers) - 1]
        # beside one activation per conv, the encoder's trailing ReLU output,
        # which the decoder's first conv keeps, and each node's Python objects;
        # batchnorm's x-hat and a ReLU output per layer would be twice this
        assert kept <= sum(activations) + code + len(g) * SLACK

    def test_paper_train_step_peak_is_bounded_by_the_layer_shapes(self):
        p = N.preset("paper")
        init = N.InitialNet(p, np.random.default_rng(0))
        imgs = rand_images(p)
        target = np.zeros((2, 1, p.map_size, p.map_size))

        def step():
            with T.Graph() as g:
                loss = N.refinement_loss(init.forward_raw(imgs, "train"), target)
            T.backward(loss)
            return len(g)

        nodes, _, peak = traced_bytes(step)
        # the step peaks in the backward of the second encoder layer, whose
        # input is the first layer's output: beside every parameter's
        # gradient, its node's x-hat of that output and the output gradient
        # it receives, and within it the input gradient, the ReLU's mask as
        # bools and a block's window and columns; rebuilding the ReLU output
        # whole there would take one more first-layer output
        side, outputs = p.input_size, []
        for layer in init.encoder.layers[:2]:
            c_out, _, k, _ = layer.conv.weights.shape
            side = nn.conv_output_size(side, k, layer.conv.stride, layer.conv.padding)
            outputs.append(2 * c_out * side * side * 8)
        activation, received = outputs
        grads = 8 * sum(t.size for t in init.parameters().values())
        bound = (grads + 2 * activation + received + activation // 8 + 2 * nn._BLOCK_BYTES
                 + nodes * SLACK)
        assert peak <= bound < grads + 3 * activation + received

    def test_dropped_forward_frees_its_graph(self):
        # the parameters outlive the pass; they must not keep its tape alive
        p, init, _ = make_nets("tiny")
        with T.Graph() as g:
            init.forward_raw(rand_images(p), "train")
            assert len(g) > 0
        graph = weakref.ref(g)
        del g
        gc.collect()
        assert graph() is None

    def test_pass_that_raises_frees_its_graph(self):
        p, init, _ = make_nets("tiny")
        with pytest.raises(BatchError):    # a batch of one, after the first conv records
            with T.Graph() as g:
                init.forward_raw(rand_images(p, b=1), "train")
        assert len(g) > 0
        graph = weakref.ref(g)
        del g
        gc.collect()
        assert graph() is None


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
                if layer.conv.bias is not None:
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

    def test_trace_copies_only_the_callers_initial_map(self):
        p, init, refine = make_nets("tiny", seed=42)
        imgs = rand_images(p, seed=43)
        r0, _ = init.initial_saliency(imgs)
        want = r0.data.copy()
        _, trace = refine.run_refinement(imgs, r0, n=3)
        r0.data += 1.0
        assert trace.maps[0].tobytes() == want.tobytes()
        # later entries are the op outputs themselves
        assert trace.maps[-1] is trace.raw_final.data

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

    @staticmethod
    def unskipped_rollout(refine, imgs, r0, n, mode):
        """The rollout that also updates the second state and picks a window
        after the last refine step: its final map and the trace's windows."""
        (h1, h2), tau = refine.init_state(imgs, mode)
        r, windows = r0, []
        for _ in range(1, n):
            h1 = refine.conv_recurrent_step(refine.encoder(refine.attend(imgs, tau), mode), h1)
            r = refine.refine_step(r, h1, tau, mode)
            windows.append(tau.data.copy())
            h2 = refine.fc_recurrent_step(h1, h2)
            tau = refine.localize(h2)
        return r, windows

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_no_window_is_picked_after_the_last_refine_step(self, n, monkeypatch):
        p, init, refine = make_nets("tiny", seed=37)
        imgs = rand_images(p, seed=38)
        r0, _ = init.initial_saliency(imgs)
        calls = {"localize": 0, "fc_recurrent_step": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(refine, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(refine, name, counted)
        _, trace = refine.run_refinement(imgs, r0, n=n)
        # one for the whole-image observation, one before each later iteration
        assert calls == {"localize": max(1, n - 1), "fc_recurrent_step": max(1, n - 1)}
        assert len(trace.windows) == n

    def test_skipped_window_changes_no_map_window_or_gradient(self):
        p, init, refine = make_nets("tiny", seed=39)
        imgs = rand_images(p, seed=40)
        r0 = init.forward_raw(imgs).data
        target = (np.random.default_rng(41).uniform(size=(2, 1, 16, 16)) > 0.5).astype(float)
        runs = []
        for rollout in ("library", "unskipped"):
            params = refine.parameters()
            T.zero_grads(params)
            with T.Graph():
                if rollout == "library":
                    _, trace = refine.run_refinement(imgs, T.Tensor(r0), n=4, mode="train")
                    r, windows = trace.raw_final, trace.windows[1:]
                else:
                    r, windows = self.unskipped_rollout(refine, imgs, T.Tensor(r0), 4, "train")
                T.backward(N.refinement_loss(r, target))
            grads = {k: None if t.grad is None else t.grad.tobytes() for k, t in params.items()}
            runs.append((r.data.tobytes(), [w.tobytes() for w in windows], grads))
        assert runs[0] == runs[1]

    def test_invalid_n(self):
        p, init, refine = make_nets("tiny")
        imgs = rand_images(p)
        r0, _ = init.initial_saliency(imgs)
        for n in (0, 2.5, "3", True):
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


def conv_outputs(stack, side, b):
    """Float64 bytes of each conv layer's output in `stack`, for a batch of
    `b` inputs of side `side`."""
    outputs = []
    for layer in stack.layers:
        p = layer.conv
        if isinstance(layer, N.UnpoolConvLayer):
            _, c_out, k, _ = p.weights.shape
            side = nn.conv_output_size(p.stride * side, k, 1, p.padding)
        else:
            c_out, _, k, _ = p.weights.shape
            side = nn.conv_output_size(side, k, p.stride, p.padding)
        outputs.append(b * c_out * side * side * 8)
    return outputs


class TestCheckpointedRollout:
    """Under a graph, each glimpse's head (the sampler and the encoder's
    first HEAD_LAYERS convolutions) is one checkpoint node that reruns in
    backward."""

    @staticmethod
    def train_step(rollout, seed=50, n=9, name="toy"):
        """The bytes of one train step's final map, loss, windows, every
        grad and every tensor after it, running statistics included, and
        the running statistics as the forward left them."""
        p, init, refine = make_nets(name, seed=seed)
        imgs = rand_images(p, b=4, seed=seed + 1)
        r0 = T.Tensor(init.forward_raw(imgs).data)
        target = (np.random.default_rng(seed + 2).uniform(size=r0.shape) > 0.5).astype(float)
        with T.Graph():
            if rollout == "library":
                _, trace = refine.run_refinement(imgs, r0, n=n, mode="train")
                r, windows = trace.raw_final, trace.windows[1:]
            else:
                r, windows = TestRunRefinement.unskipped_rollout(refine, imgs, r0, n, "train")
            loss = N.refinement_loss(r, target)
        after_forward = {k: t.data.tobytes() for k, t in refine.tensors() if not t.requires_grad}
        T.backward(loss)
        grads = {k: t.grad.tobytes() for k, t in refine.parameters().items()}
        tensors = {k: t.data.tobytes() for k, t in refine.tensors()}
        return (r.data.tobytes(), loss.data.tobytes(), [w.tobytes() for w in windows], grads,
                tensors), after_forward

    def test_toy_train_step_matches_the_plain_tape_byte_for_byte(self):
        plain, _ = self.train_step("unskipped")
        checkpointed, after_forward = self.train_step("library")
        assert checkpointed == plain
        # the rerun in backward leaves the running statistics as they were
        running = {k: v for k, v in checkpointed[-1].items() if k.endswith(("rmean", "rvar"))}
        assert running == after_forward and len(running) > 0

    def test_tiny_rollout_whose_cut_covers_the_whole_encoder_matches_the_plain_tape(self):
        assert len(N.preset("tiny").encoder) < N.HEAD_LAYERS
        plain, _ = self.train_step("unskipped", name="tiny")
        checkpointed, after_forward = self.train_step("library", name="tiny")
        assert checkpointed == plain
        running = {k: v for k, v in checkpointed[-1].items() if k.endswith(("rmean", "rvar"))}
        assert running == after_forward and len(running) > 0

    def test_rerun_skips_the_forward_of_the_heads_last_convolution(self, monkeypatch):
        forwards, in_backward = [0], [False]

        def counting(plan):
            def wrapped(*args):
                forward, backward = plan(*args)

                def counted(*a):
                    forwards[0] += in_backward[0]
                    return forward(*a)
                return counted, backward
            return wrapped

        monkeypatch.setattr(nn, "_conv_plan", counting(nn._conv_plan))
        backward = T.backward

        def counted_backward(loss):
            in_backward[0] = True
            try:
                backward(loss)
            finally:
                in_backward[0] = False
        monkeypatch.setattr(T, "backward", counted_backward)
        n = 9
        self.train_step("library", n=n)
        head = len(N.preset("toy").encoder[:N.HEAD_LAYERS])
        assert head == 3
        # each of the n - 1 glimpses reruns every head convolution but the last
        assert forwards[0] == (n - 1) * (head - 1)

    def test_untracked_window_with_tracked_encoder_params(self):
        runs = []
        for checkpointed in (False, True):
            p, _, refine = make_nets("toy", seed=52)
            imgs = rand_images(p, b=2, seed=53)
            tau = T.Tensor([[0.5, 0.2, -0.1], [0.7, -0.3, 0.0]])
            head = refine.encoder.layers[:N.HEAD_LAYERS]
            params = [t for layer in head for _, t in layer.tensors() if t.requires_grad]

            def glimpse(images, window):
                return refine.encoder.convs(refine.attend(images, window), "train", 0, len(head))

            with T.Graph() as g:
                if checkpointed:
                    out = T.checkpoint(glimpse, [imgs, tau], params)
                else:
                    out = glimpse(imgs, tau)
                assert out._node is not None
                nodes = len(g)
                loss = sum_all(mul(out, out))
            T.backward(loss)
            runs.append([t.grad.tobytes() if t.grad is not None else None for t in params]
                        + [t.data.tobytes() for _, t in refine.encoder.tensors()])
            assert nodes == (1 if checkpointed else len(head))    # the sampler does not record
        assert runs[0] == runs[1]

    def test_tape_leaves_out_the_glimpses_and_the_first_x_hats(self):
        self.check_tape("toy", 8)

    @pytest.mark.slow
    def test_paper_tape_leaves_out_the_glimpses_and_the_first_x_hats(self):
        self.check_tape("paper", 2)

    @staticmethod
    def check_tape(name, b):
        """The tape after the forward of a `name` rollout of `b` images,
        against a bound from the layer shapes that the plain tape fails."""
        p, init, refine = make_nets(name, seed=54)
        n = N.DEFAULT_ITERATIONS
        imgs = rand_images(p, b=b, seed=55)
        r0 = T.Tensor(init.forward_raw(imgs).data)
        with T.Graph() as g:
            _, kept, _ = traced_bytes(lambda: refine.run_refinement(imgs, r0, n=n, mode="train"))
        enc = conv_outputs(refine.encoder, p.input_size, b)
        dec = conv_outputs(refine.decoder, p.code_size, b)
        code, patch = enc[-1], dec[-1]
        # the context encoder keeps one activation per conv, its trailing
        # ReLU output and the first recurrent state. Each glimpse keeps the
        # x-hat of every encoder conv output but the first two, the trailing
        # ReLU output, the recurrent state, one activation per decoder conv,
        # the patch (which the inverse sampler keeps), the new map and its
        # window mask; not the glimpse, nor the first two conv outputs' x-hats
        context = sum(enc) + 2 * code
        glimpse = sum(enc[2:]) + 2 * code + sum(dec[:-1]) + 2 * patch + patch // 8
        bound = context + (n - 1) * glimpse + len(g) * SLACK
        assert kept <= bound
        # the plain tape, which keeps each glimpse and its first x-hats too
        with T.Graph():
            _, plain, _ = traced_bytes(
                lambda: TestRunRefinement.unskipped_rollout(refine, imgs, r0, n, "train"))
        assert bound < plain


class TestFusedDecoder:
    @staticmethod
    def composed_decoder(decoder, x, mode):
        """The decoder as nn.unpool, then nn.conv2d, over the same parameters:
        an unpooled input's weights back in the conv's layout, at stride 1."""
        for layer in decoder.layers:
            p = layer.conv
            if isinstance(layer, N.UnpoolConvLayer):
                x = nn.unpool(x, p.stride)
                w = p.weights.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
                p = nn.Conv2dParams(T.Tensor(w.copy()), p.bias, 1, p.padding)
            x = nn.conv2d(x, p)
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

    def test_every_parameter_of_a_two_stage_step_gets_a_gradient(self):
        """No parameter is dead: one seeded train step of both stages gives
        each a gradient above rounding noise. A conv bias in front of a
        batchnorm, whose true gradient is 0, reads at most 1.4e-17 here."""
        p, init, refine = make_nets("tiny", seed=44)
        imgs = rand_images(p, b=4, seed=45)
        target = (np.random.default_rng(46).uniform(size=(4, 1, 16, 16)) > 0.5).astype(float)
        with T.Graph():
            r0 = init.forward_raw(imgs, "train")
            loss = N.refinement_loss(r0, target)
        T.backward(loss)
        with T.Graph():
            _, trace = refine.run_refinement(imgs, T.Tensor(r0.data), n=3, mode="train")
            loss = N.refinement_loss(trace.raw_final, target)
        T.backward(loss)
        grads = {f"{net}.{k}": t.grad for net, params in (("init", init.parameters()),
                                                           ("refine", refine.parameters()))
                 for k, t in params.items()}
        dead = {k: None if g is None else float(np.abs(g).max()) for k, g in grads.items()
                if g is None or np.abs(g).max() <= 1e-9}
        assert not dead


class TestWorkspace:
    """An infer pass with no graph takes the convolutions' temporaries from
    this thread's scratch (``nn._scratch``); nothing it returns lives
    there, and the scratch changes no byte."""

    @staticmethod
    def infer(init, refine, imgs, n=3):
        """The initial maps, the refined map and the trace of one pass."""
        r0, s0 = init.initial_saliency(imgs)
        s, trace = refine.run_refinement(imgs, r0, n=n)
        return r0, s0, s, trace

    @staticmethod
    def arrays(run):
        r0, s0, s, trace = run
        return [r0.data, s0.data, s.data, trace.raw_final.data, *trace.maps, *trace.windows]

    def digest(self, run):
        return [a.tobytes() for a in self.arrays(run)]

    def test_no_array_of_an_infer_pass_shares_the_workspace(self, monkeypatch):
        p, init, refine = make_nets("toy", seed=90)
        imgs = rand_images(p, seed=91)
        made = []     # the data of every tensor the pass makes: every op output
        tensor_init = T.Tensor.__init__

        def keep(t, *args, **kwargs):
            tensor_init(t, *args, **kwargs)
            made.append(t.data)

        monkeypatch.setattr(T.Tensor, "__init__", keep)
        arrays = self.arrays(self.infer(init, refine, imgs)) + made
        bufs = list(workspace().values())
        assert len(bufs) == 5 and len(made) > 50
        assert not any(np.shares_memory(a, buf) for a in arrays for buf in bufs)

    def test_passes_in_turn_in_a_fresh_thread_and_on_a_graph_are_byte_identical(self):
        p, init, refine = make_nets("toy", seed=92)
        imgs = rand_images(p, seed=93)
        drop_workspace()
        first = self.digest(self.infer(init, refine, imgs))
        # every buffer now holds stale values from the pass before
        second = self.digest(self.infer(init, refine, imgs))
        fresh_thread = []
        t = threading.Thread(target=lambda: fresh_thread.append(
            self.digest(self.infer(init, refine, imgs))))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        with T.Graph():
            on_graph = self.digest(self.infer(init, refine, imgs))
        assert first == second == fresh_thread[0] == on_graph

    def test_threads_at_once_match_the_serial_bytes(self):
        # more threads than the two CPUs a small host has, switching often
        p, init, refine = make_nets("toy", seed=94)
        images = [rand_images(p, seed=s) for s in (95, 96, 97)]
        serial = [self.digest(self.infer(init, refine, im)) for im in images]
        barrier = threading.Barrier(len(images))
        got = [None] * len(images)

        def run(i):
            barrier.wait()
            got[i] = self.digest(self.infer(init, refine, images[i]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(images))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == serial

    @staticmethod
    def paper_workspace_bound(p):
        """Bytes the workspace may hold after a `paper` infer pass, at any
        batch size. Each slot holds one block's share at most: a conv
        block's columns ("cols"), BN-ReLU rows ("rows") and zero-bordered
        window ("padded"), each within a block's budget at paper size, which
        an unpool block's taps and BN-ReLU rows also fit; an unpool block's
        canvas ("canvas"), at most the whole output of the images one block
        takes, whose taps, BN-ReLU rows and s*s canvas rows per input row
        share one budget; and a bias run ("bias") of at most numpy's buffer
        size. No term grows with the batch."""
        widths = (p.code_channels,) + p.decoder
        sides = [p.code_size * 2 ** i for i in range(len(p.decoder))]
        canvas = 0
        for c_in, c_out, h in zip(widths, p.decoder, sides):
            row = (c_out * 5 * 5 + c_in + 2 * 2 * c_out) * h * 8
            images = max(1, nn._BLOCK_BYTES // (row * h))
            canvas = max(canvas, images * c_out * (2 * h) ** 2 * 8)
        return 3 * nn._BLOCK_BYTES + canvas + 8 * np.getbufsize()

    @staticmethod
    def paper_workspace(b):
        """Bytes the workspace holds after a `paper` infer pass of `b`
        images: the initial map and a 2-iteration rollout."""
        p = N.preset("paper")
        rng = np.random.default_rng(97)
        init, refine = N.InitialNet(p, rng), N.RefineNet(p, rng)
        imgs = rand_images(p, b=b, seed=98)
        drop_workspace()
        r0, _ = init.initial_saliency(imgs)
        refine.run_refinement(imgs, r0, n=2)
        return sum(buf.nbytes for buf in workspace().values())

    def test_paper_workspace_is_bounded(self):
        # infer_paper's batch
        assert 0 < self.paper_workspace(2) <= self.paper_workspace_bound(N.preset("paper"))

    @pytest.mark.slow
    def test_paper_workspace_is_bounded_at_batch_8(self):
        assert 0 < self.paper_workspace(8) <= self.paper_workspace_bound(N.preset("paper"))
