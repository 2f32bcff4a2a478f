import weakref

import numpy as np
import pytest

from racdnn import tensor as T
from racdnn.errors import ArgumentError, GraphError, ShapeError

from gradcheck import check_grad
from memory import SLACK, traced_bytes
from ops import matmul, mul, sum_all


class TestCreate:
    def test_zeros(self):
        t = T.zeros([2, 2])
        assert t.shape == (2, 2)
        assert np.array_equal(t.data, np.zeros((2, 2)))

    def test_constant(self):
        t = T.full([1], 1.0)
        assert t.data.tolist() == [1.0]

    @pytest.mark.parametrize("shape", [[], [0], [2, -1], [2, 0, 3], [2.5], ["3"], [True, 3]])
    def test_invalid_shape(self, shape):
        with pytest.raises(ShapeError):
            T.zeros(shape)

    def test_he_normal_scale(self):
        t = T.he_normal([40, 5, 10], rng=np.random.default_rng(0))   # fan-in 5*10
        assert abs(t.data.std() - np.sqrt(2.0 / 50)) < 0.01

    @pytest.mark.parametrize("shape,fan_in", [([4, 3, 5, 5], 75), ([6, 7], 7), ([3], 1)],
                             ids=["kernel", "linear", "vector"])
    def test_he_normal_fan_in_is_every_axis_after_the_first(self, shape, fan_in):
        want = np.random.default_rng(1).normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        got = T.he_normal(shape, np.random.default_rng(1)).data
        assert got.tobytes() == want.tobytes()


class TestElementwise:
    def test_add(self):
        out = T.add(T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
        assert out.data.tolist() == [4.0, 6.0]

    def test_relu(self):
        out = T.relu(T.Tensor([-2.0, 3.0]))
        assert out.data.tolist() == [0.0, 3.0]

    def test_relu_of_untracked_input_builds_no_mask(self):
        x = T.Tensor(np.random.default_rng(0).normal(size=(256, 256)))
        out, _, peak = traced_bytes(lambda: T.relu(x))
        assert peak < out.data.nbytes + x.size // 2    # a bool mask takes x.size bytes

    def test_relu_tape_keeps_its_output_not_a_mask(self):
        x = T.Tensor(np.random.default_rng(0).normal(size=(256, 256)), requires_grad=True)
        with T.Graph():
            out, kept, _ = traced_bytes(lambda: T.relu(x))
        assert kept <= out.data.nbytes + SLACK < out.data.nbytes + x.size   # a bool mask

    def test_sigmoid_at_zero(self):
        assert T.sigmoid(T.Tensor([0.0])).data.tolist() == [0.5]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(T.Tensor([1.0, 2.0]), T.Tensor([1.0, 2.0, 3.0]))

    def test_sigmoid_extreme_inputs_finite(self):
        out = T.sigmoid(T.Tensor([-700.0, 700.0]))
        assert np.all(np.isfinite(out.data))


# an ndarray where an op takes a Tensor
NOT_TENSORS = {
    "add.first": lambda: T.add(np.zeros(2), T.zeros([2])),
    "add.second": lambda: T.add(T.zeros([2]), np.zeros(2)),
    "relu": lambda: T.relu(np.zeros(2)),
    "sigmoid": lambda: T.sigmoid(np.zeros(2)),
    "reshape": lambda: T.reshape(np.zeros(4), (2, 2)),
    "masked_add.base": lambda: T.masked_add(np.zeros(2), T.zeros([2]), np.ones(2, dtype=bool)),
    "masked_add.delta": lambda: T.masked_add(T.zeros([2]), np.zeros(2), np.ones(2, dtype=bool)),
}


@pytest.mark.parametrize("op", sorted(NOT_TENSORS))
def test_array_for_a_tensor_rejected(op):
    with pytest.raises(ArgumentError, match="must be a Tensor"):
        NOT_TENSORS[op]()


class TestMatmul:
    def test_identity(self):
        m = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(T.Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_hand_value(self):
        out = matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))

    def test_grad_of_sum_is_ones_bT(self):
        rng = np.random.default_rng(1)
        a = T.Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(7, 3)))
        with T.Graph():
            loss = sum_all(matmul(a, b))
            T.backward(loss)
        expected = np.ones((5, 3)) @ b.data.T
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

        def f(x):
            return float((x @ b.data).sum())

        check_grad(f, a.data, a.grad, tol=1e-4)


class TestBackward:
    def test_square_sum(self):
        x = T.Tensor([3.0], requires_grad=True)
        with T.Graph():
            loss = sum_all(mul(x, x))
            T.backward(loss)
        assert x.grad.tolist() == [6.0]

    def test_product_rule(self):
        a = T.Tensor([2.0, -1.0], requires_grad=True)
        b = T.Tensor([5.0, 4.0], requires_grad=True)
        with T.Graph():
            T.backward(sum_all(mul(a, b)))
        assert a.grad.tolist() == b.data.tolist()
        assert b.grad.tolist() == a.data.tolist()

    def test_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x_data = rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.05
        w_data = rng.normal(size=(4, 4))

        def forward(x):
            xt = T.Tensor(x, requires_grad=True)
            w = T.Tensor(w_data)
            h = T.relu(matmul(xt, w))
            y = T.sigmoid(T.add(h, xt))
            return xt, sum_all(mul(y, y))

        xt, loss = None, None
        with T.Graph():
            xt, loss = forward(x_data)
            T.backward(loss)

        def f(x):
            _, l = forward(x)
            return l.item()

        check_grad(f, x_data, xt.grad, n_coords=16, tol=1e-4)

    def test_accumulation_is_linear(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(3,))

        def run(fn):
            x = T.Tensor(data, requires_grad=True)
            with T.Graph():
                T.backward(fn(x))
            return x.grad

        g1 = run(lambda x: sum_all(mul(x, x)))
        g2 = run(lambda x: sum_all(T.sigmoid(x)))
        g_combined = run(lambda x: T.add(sum_all(mul(x, x)), sum_all(T.sigmoid(x))))
        np.testing.assert_allclose(g_combined, g1 + g2, rtol=1e-12)

    def test_repeated_backward_accumulates(self):
        # backward consumes the tape, so the second pass over it raises and
        # the first pass's gradient stands
        x = T.Tensor([2.0], requires_grad=True)
        with T.Graph():
            loss = sum_all(mul(x, x))
            T.backward(loss)
            with pytest.raises(GraphError):
                T.backward(loss)
        assert x.grad.tolist() == [4.0]

    def test_tape_keeps_its_length_after_backward(self):
        x = T.Tensor([2.0], requires_grad=True)
        with T.Graph() as g:
            loss = sum_all(T.relu(mul(x, x)))
        nodes = len(g)
        T.backward(loss)
        assert len(g) == nodes == 3

    def test_second_loss_through_a_consumed_node_raises(self):
        x = T.Tensor([2.0], requires_grad=True)
        with T.Graph():
            y = mul(x, x)
            T.backward(sum_all(y))
            with pytest.raises(GraphError):
                T.backward(sum_all(mul(y, 3.0)))
            # the walk would reach x through the fresh mul before the
            # consumed y; it raises before it adds anything
            with pytest.raises(GraphError):
                T.backward(T.add(sum_all(y), sum_all(mul(x, 5.0))))
        assert x.grad.tolist() == [4.0]

    def test_backward_frees_what_a_closure_kept(self):
        x = T.Tensor(np.random.default_rng(5).normal(size=(64,)), requires_grad=True)
        with T.Graph() as g:
            h = T.relu(mul(x, 2.0))
            kept = weakref.ref(h.data)    # relu's closure keeps its output
            loss = sum_all(h)
        del h
        assert kept() is not None
        T.backward(loss)
        assert kept() is None
        assert len(g) == 3 and loss.item() > 0.0

    def test_leaf_grads_own_their_buffers(self):
        # add hands one buffer to both leaves; each must own its own, because
        # a later gradient is added into it in place
        a = T.Tensor([1.0], requires_grad=True)
        b = T.Tensor([2.0], requires_grad=True)
        with T.Graph():
            T.backward(sum_all(T.add(a, b)))
        assert not np.may_share_memory(a.grad, b.grad)
        grad_a = a.grad
        with T.Graph():
            T.backward(sum_all(mul(a, 3.0)))
        assert a.grad is grad_a and grad_a.tolist() == [4.0]
        assert b.grad.tolist() == [1.0]

    def test_add_of_a_leaf_and_a_node(self):
        # add gives the leaf `a` and the node `y` one buffer; the mul that
        # read `a` earlier then adds into a.grad in place while y's gradient
        # is still pending, so y must hold a copy
        a = T.Tensor([1.0, -2.0], requires_grad=True)
        x = T.Tensor([3.0, 0.5], requires_grad=True)
        with T.Graph():
            y = mul(x, 2.0)
            u = mul(a, 5.0)
            T.backward(sum_all(T.add(T.add(a, y), u)))
        assert a.grad.tolist() == [6.0, 6.0]
        assert x.grad.tolist() == [2.0, 2.0]

    def test_finished_graph_is_released(self):
        x = T.Tensor([2.0], requires_grad=True)
        with T.Graph() as g:
            loss = sum_all(mul(x, x))
        T.backward(loss)
        graph = weakref.ref(g)
        del g, loss
        assert graph() is None
        assert x.grad.tolist() == [4.0]

    def test_leaves_never_point_at_the_tape(self):
        x = T.Tensor([2.0], requires_grad=True)
        with T.Graph():
            loss = sum_all(mul(x, x))
            assert x._node is None
            T.backward(loss)
        assert x._node is None

    def test_shared_leaf_takes_each_graphs_gradient(self):
        x = T.Tensor([2.0], requires_grad=True)
        with T.Graph():
            square = sum_all(mul(x, x))
        with T.Graph():
            triple = sum_all(mul(x, 3.0))
        T.backward(triple)
        assert x.grad.tolist() == [3.0]
        T.backward(square)
        assert x.grad.tolist() == [7.0]

    def test_recording_after_backward_keeps_accumulating(self):
        x = T.Tensor([2.0], requires_grad=True)
        with T.Graph():
            T.backward(sum_all(mul(x, x)))
            T.backward(sum_all(mul(x, 3.0)))
        assert x.grad.tolist() == [7.0]

    def test_reused_node_accumulates(self):
        x = T.Tensor([3.0], requires_grad=True)
        with T.Graph():
            y = mul(x, 2.0)
            T.backward(sum_all(T.add(y, y)))
        assert x.grad.tolist() == [4.0]

    def test_needs_grad_follows_the_active_graph(self):
        leaf = T.Tensor([1.0], requires_grad=True)
        const = T.Tensor([1.0])
        assert not T.needs_grad(leaf)
        with T.Graph() as g:
            y = mul(leaf, 2.0)
            assert T.needs_grad(leaf) and T.needs_grad(y)
            assert not T.needs_grad(const) and not T.needs_grad(mul(const, 2.0))
            assert not T.needs_grad(None) and not T.needs_grad(np.ones(1))
            assert len(g) == 1    # the mul only; the check registers nothing
        with T.Graph():
            assert T.needs_grad(leaf)
            assert not T.needs_grad(y)    # tracked on another graph

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Graph():
            y = mul(x, x)
            with pytest.raises(ArgumentError):
                T.backward(y)

    def test_detached_loss_rejected(self):
        x = T.Tensor([1.0], requires_grad=True)
        loss = sum_all(mul(x, x))  # no active graph
        with pytest.raises(GraphError):
            T.backward(loss)

    def test_forward_independent_of_recording(self):
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        plain = T.sigmoid(matmul(x, x)).data
        with T.Graph():
            recorded = T.sigmoid(matmul(x, x)).data
        assert np.array_equal(plain, recorded)

    def test_grad_aliasing_safe(self):
        # add hands the same gradient array to both inputs; leaves must not share it
        a = T.Tensor([1.0], requires_grad=True)
        b = T.Tensor([2.0], requires_grad=True)
        with T.Graph():
            T.backward(sum_all(T.add(a, b)))
        a.grad[0] = 99.0
        assert b.grad.tolist() == [1.0]


class TestStructural:
    def test_reshape_roundtrip_grad(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with T.Graph():
            T.backward(sum_all(mul(T.reshape(x, (6,)), 2.0)))
        assert np.array_equal(x.grad, np.full((2, 3), 2.0))

    def test_reshape_bad_size(self):
        with pytest.raises(ShapeError):
            T.reshape(T.zeros([2, 3]), (4,))

    @pytest.mark.parametrize("shape", [(2.5, 4), (True, 8), ("8",), (-2, -4)],
                             ids=["float", "bool", "str", "negative"])
    def test_reshape_bad_dimensions(self, shape):
        # each of these has 8 elements, or truncates to a shape that does
        with pytest.raises(ShapeError):
            T.reshape(T.zeros([2, 4]), shape)


class TestCheckpoint:
    """``T.checkpoint`` records a function as one node and reruns it in
    backward; the networks checkpoint each glimpse's head with it."""

    @staticmethod
    def segment(a, w):
        return T.sigmoid(mul(T.relu(mul(a, w)), w))

    def run(self, checkpointed):
        """Grads of a leaf that enters the segment through an op, and of a
        leaf the segment reads besides its input."""
        rng = np.random.default_rng(21)
        x = T.Tensor(rng.normal(size=(64,)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(64,)), requires_grad=True)
        with T.Graph() as g:
            a = mul(x, 3.0)
            if checkpointed:
                out = T.checkpoint(lambda t: self.segment(t, w), [a], [w])
            else:
                out = self.segment(a, w)
            T.backward(sum_all(mul(out, w)))
        return out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes(), len(g)

    def test_matches_the_plain_tape_as_one_node(self):
        *plain, plain_nodes = self.run(False)
        *checkpointed, nodes = self.run(True)
        assert checkpointed == plain
        assert nodes == plain_nodes - 3

    @pytest.mark.parametrize("passed_twice", [False, True], ids=["read-twice", "passed-twice"])
    def test_op_output_read_twice_and_after_the_segment_sums_in_another_order(self, passed_twice):
        # the rerun sums the segment's terms in that op output's gradient
        # on its own leaves, and the pass's walk adds those sums to the
        # term of the op after the segment
        def run(checkpointed):
            x = T.Tensor(np.random.default_rng(23).normal(size=(64,)), requires_grad=True)
            with T.Graph():
                a = mul(x, 3.0)
                if passed_twice:
                    fn, ins = (lambda t, u: mul(T.sigmoid(t), T.relu(u))), [a, a]
                else:
                    fn, ins = (lambda t: mul(T.sigmoid(t), T.relu(t))), [a]
                out = T.checkpoint(fn, ins) if checkpointed else fn(*ins)
                T.backward(sum_all(T.add(out, T.sigmoid(a))))
            return out.data, x.grad

        (plain_out, plain), (out, grad) = run(False), run(True)
        assert out.tobytes() == plain_out.tobytes()
        np.testing.assert_allclose(grad, plain, rtol=1e-14, atol=0)

    def test_with_no_graph_it_is_the_call(self):
        out = T.Tensor([1.0])
        assert T.checkpoint(lambda t: out, [T.Tensor([2.0])]) is out

    def test_keeps_its_inputs_by_reference_and_nothing_else(self):
        a = T.Tensor(np.random.default_rng(22).normal(size=(256, 256)), requires_grad=True)
        with T.Graph():
            out, kept, _ = traced_bytes(lambda: T.checkpoint(
                lambda t: T.sigmoid(T.relu(mul(t, 2.0))), [a]))
        # the plain tape would keep the relu's and the sigmoid's outputs
        assert kept <= out.data.nbytes + SLACK

    def test_records_for_a_tracked_param_of_untracked_inputs(self):
        a = T.Tensor(np.arange(4.0))
        w = T.Tensor(np.full(4, 2.0), requires_grad=True)
        with T.Graph() as g:
            loss = sum_all(T.checkpoint(lambda t: mul(t, w), [a], [w]))
        assert len(g) == 2
        T.backward(loss)
        assert w.grad.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_rerun_computes_no_output_that_nothing_reads(self):
        # an op recorded as a function of its output, whose backward, like
        # the fused convolutions', reads only its input
        forwards = []

        def scale(t, name):
            data = t.data       # an op reads its input as it records

            def bwd(og):
                return (og * 2.0,)
            return T.record(lambda: forwards.append(name) or data * 2.0, [t], bwd)

        x = T.Tensor(np.arange(3.0), requires_grad=True)
        with T.Graph():
            out = T.checkpoint(lambda t: scale(scale(t, "inner"), "last"), [x])
            loss = sum_all(out)
        assert forwards == ["inner", "last"] and out.data.tolist() == [0.0, 4.0, 8.0]
        T.backward(loss)
        # the rerun computed the output that the last op read, and not its own
        assert forwards == ["inner", "last", "inner"]
        assert x.grad.tolist() == [4.0, 4.0, 4.0]

    def test_first_run_that_raises_restores_the_graph(self):
        def boom(t):
            raise RuntimeError("first run")

        with T.Graph() as g:
            with pytest.raises(RuntimeError):
                T.checkpoint(boom, [T.Tensor([1.0], requires_grad=True)])
            assert T._active_graph() is g and not T._recomputing()
        assert T._active_graph() is None

    def test_rerun_that_raises_restores_the_graph(self):
        runs = []

        def second_run_raises(t):
            runs.append(T._recomputing())
            if runs[-1]:
                raise RuntimeError("rerun")
            return mul(t, 2.0)

        x = T.Tensor([1.0], requires_grad=True)
        with T.Graph() as g:
            loss = sum_all(T.checkpoint(second_run_raises, [x]))
            with pytest.raises(RuntimeError):
                T.backward(loss)
            assert T._active_graph() is g and not T._recomputing()
        with T.Graph():
            loss = sum_all(T.checkpoint(second_run_raises, [x]))
        with pytest.raises(RuntimeError):
            T.backward(loss)
        assert T._active_graph() is None and not T._recomputing()
        assert runs == [False, True, False, True]

    def test_second_backward_through_a_consumed_checkpoint_raises(self):
        x = T.Tensor([2.0], requires_grad=True)
        with T.Graph():
            y = T.checkpoint(lambda t: mul(t, t), [x])
            T.backward(sum_all(y))
            with pytest.raises(GraphError):
                T.backward(sum_all(mul(y, 3.0)))
        assert x.grad.tolist() == [4.0]
