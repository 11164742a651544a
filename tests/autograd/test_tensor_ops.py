"""Unit tests for the basic Tensor operations (forward values and gradients)."""

import gc
import itertools
import threading
import weakref

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, is_grad_enabled


class TestConstruction:
    def test_ensure_wraps_scalars_and_arrays(self):
        assert isinstance(Tensor.ensure(3.0), Tensor)
        assert isinstance(Tensor.ensure(np.ones(3)), Tensor)

    def test_ensure_passes_through_tensors(self):
        tensor = Tensor([1.0, 2.0])
        assert Tensor.ensure(tensor) is tensor

    def test_zeros_ones_eye(self):
        assert np.all(Tensor.zeros(2, 3).numpy() == 0)
        assert np.all(Tensor.ones(2, 3).numpy() == 1)
        assert np.allclose(Tensor.eye(3).numpy(), np.eye(3))

    def test_shape_and_size(self):
        tensor = Tensor(np.zeros((2, 5)))
        assert tensor.shape == (2, 5)
        assert tensor.ndim == 2
        assert tensor.size == 10
        assert len(tensor) == 2

    def test_data_is_float64(self):
        assert Tensor([1, 2, 3]).numpy().dtype == np.float64


class TestArithmetic:
    def test_add_forward_and_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = (a + b).sum()
        out.backward()
        assert np.allclose(out.numpy(), 10.0)
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_radd_with_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (5.0 + a).sum()
        out.backward()
        assert np.allclose(out.numpy(), 13.0)
        assert np.allclose(a.grad, [1.0, 1.0])

    def test_sub_and_rsub(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (10.0 - a).sum()
        out.backward()
        assert np.allclose(out.numpy(), 17.0)
        assert np.allclose(a.grad, [-1.0, -1.0])

    def test_mul_gradients(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [4.0, 5.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_div_gradients(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-1.0])

    def test_pow_gradient(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).sum().backward()
        assert np.allclose(a.grad, [6.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** np.array([1.0, 2.0])

    def test_neg(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        assert np.allclose(a.grad, [-1.0, -1.0])

    def test_gradient_accumulates_over_multiple_uses(self):
        a = Tensor([2.0], requires_grad=True)
        out = (a * a + a).sum()
        out.backward()
        assert np.allclose(a.grad, [5.0])


class TestElementwiseFunctions:
    def test_exp_log_roundtrip_gradient(self):
        a = Tensor([0.5, 1.5], requires_grad=True)
        a.exp().log().sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])

    def test_sqrt(self):
        a = Tensor([4.0], requires_grad=True)
        a.sqrt().backward(np.array([1.0]))
        assert np.allclose(a.grad, [0.25])

    def test_tanh_gradient(self):
        a = Tensor([0.3], requires_grad=True)
        a.tanh().sum().backward()
        assert np.allclose(a.grad, 1.0 - np.tanh(0.3) ** 2)

    def test_sigmoid_range(self):
        values = Tensor(np.linspace(-5, 5, 11)).sigmoid().numpy()
        assert np.all(values > 0) and np.all(values < 1)

    def test_relu_zeroes_negative_gradient(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        a.relu().sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0])

    def test_leaky_relu_uses_slope(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        a.leaky_relu(0.1).sum().backward()
        assert np.allclose(a.grad, [0.1, 1.0])

    def test_abs_gradient_is_sign(self):
        a = Tensor([-2.0, 3.0], requires_grad=True)
        a.abs().sum().backward()
        assert np.allclose(a.grad, [-1.0, 1.0])

    def test_clip_masks_gradient_outside_range(self):
        a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_mean_gradient_scaled(self):
        a = Tensor(np.ones((4,)), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, np.full(4, 0.25))

    def test_mean_over_axis_tuple(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = a.mean(axis=(0, 2))
        assert out.shape == (3,)
        out.sum().backward()
        assert np.allclose(a.grad, np.full((2, 3, 4), 1.0 / 8.0))

    def test_max_gradient_goes_to_argmax(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])

    def test_max_ties_split_gradient(self):
        a = Tensor([2.0, 2.0], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad.sum(), 1.0)

    def test_norm_matches_numpy(self):
        a = Tensor(np.array([[3.0, 4.0]]))
        assert np.allclose(a.norm(axis=1).numpy(), [5.0], atol=1e-5)


class TestBackwardMechanics:
    def test_backward_requires_scalar_or_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_detach_cuts_the_graph(self):
        a = Tensor([2.0], requires_grad=True)
        detached = (a * 3).detach()
        assert not detached.requires_grad

    def test_zero_grad_resets(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_no_grad_disables_tape(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = a * 2
        assert is_grad_enabled()
        assert not out.requires_grad

    def test_no_grad_in_one_thread_leaves_others_recording(self):
        """Thread A holds no_grad() open while thread B builds its tape."""
        a = Tensor([1.0], requires_grad=True)
        entered, computed = threading.Barrier(2), threading.Barrier(2)
        results = {}

        def holder():
            with no_grad():
                entered.wait(timeout=10)
                computed.wait(timeout=10)
                results["holder"] = is_grad_enabled()

        def worker():
            entered.wait(timeout=10)
            results["worker"] = (a * 2).requires_grad
            computed.wait(timeout=10)

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=worker)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert results == {"holder": False, "worker": True}
        assert is_grad_enabled()

    def test_deep_chain_backward_is_iterative(self):
        # A long chain would overflow a recursive implementation.
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(2000):
            out = out * 1.001
        out.sum().backward()
        assert a.grad is not None and np.isfinite(a.grad).all()


class TestTapeLifetimeAndOwnership:
    def test_second_backward_through_shared_node_counts_once(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = a * 2
        b.sum().backward()
        (b * 3).sum().backward()
        assert np.array_equal(a.grad, [8.0, 8.0, 8.0])
        assert b.grad is None

    def test_leaf_root_accumulates_into_its_own_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        g = np.array([1.0, 2.0])
        a.backward(g)
        assert not np.shares_memory(a.grad, g)
        a.backward(g)
        assert np.array_equal(a.grad, [2.0, 4.0])
        assert not np.shares_memory(a.grad, g)
        assert np.array_equal(g, [1.0, 2.0]) and g.flags.writeable

    def test_finished_tape_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            a = Tensor(np.ones(3), requires_grad=True)
            hidden = (a * 2).exp()
            output = weakref.ref(hidden.data)
            loss = hidden.sum()
            del hidden
            loss.backward()
            assert output() is not None
            del loss
            assert output() is None
        finally:
            gc.enable()

    def test_only_leaves_keep_gradients_and_each_owns_its_buffer(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        y = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        hidden = x @ w + b
        flipped = y.T
        rowsum = (x * 2).sum(axis=1, keepdims=True)
        root = Tensor.concat([hidden, flipped, rowsum], axis=-1)
        seed = rng.normal(size=root.shape)
        root.backward(seed)
        assert all(node.grad is None for node in (hidden, flipped, rowsum, root))
        leaves = (x, w, b, y)
        for leaf in leaves:
            assert leaf.grad.flags.writeable and leaf.grad.flags.c_contiguous
            assert not np.shares_memory(leaf.grad, seed)
        for first, second in itertools.combinations(leaves, 2):
            assert not np.shares_memory(first.grad, second.grad)
        assert np.array_equal(y.grad, seed[:, 2:6].T)

    def test_gradients_from_before_the_pass_are_never_written(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        assigned = np.zeros(2)
        a.grad = assigned
        ((a * 2) + a).sum().backward()
        assert np.array_equal(assigned, [0.0, 0.0])
        kept = a.grad
        ((a * 2) + a).sum().backward()
        assert np.array_equal(kept, [3.0, 3.0])
        assert np.array_equal(a.grad, [6.0, 6.0])
