"""Property-based tests for the autograd substrate.

Verify algebraic identities of the Tensor operations, that analytic
gradients match finite differences on randomly drawn inputs and shapes, and
that the tape's in-place accumulation leaves every leaf gradient bit-identical
to copying each first gradient.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from oracles import copy_every_first_gradient

from repro.autograd import Tensor, check_gradients, softmax

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def random_array(draw, max_rows=6, max_cols=6):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    return np.random.default_rng(seed).normal(size=(rows, cols))


class TestAlgebraicIdentities:
    @SETTINGS
    @given(random_array())
    def test_addition_commutes(self, values):
        a = Tensor(values)
        b = Tensor(values[::-1].copy())
        assert np.allclose((a + b).numpy(), (b + a).numpy())

    @SETTINGS
    @given(random_array())
    def test_double_negation(self, values):
        a = Tensor(values)
        assert np.allclose((-(-a)).numpy(), values)

    @SETTINGS
    @given(random_array())
    def test_exp_log_inverse_on_positive_values(self, values):
        a = Tensor(np.abs(values) + 0.1)
        assert np.allclose(a.log().exp().numpy(), a.numpy(), rtol=1e-9)

    @SETTINGS
    @given(random_array())
    def test_sum_equals_numpy(self, values):
        assert np.isclose(Tensor(values).sum().item(), values.sum())

    @SETTINGS
    @given(random_array())
    def test_transpose_involution(self, values):
        a = Tensor(values)
        assert np.allclose(a.T.T.numpy(), values)

    @SETTINGS
    @given(random_array())
    def test_softmax_rows_are_distributions(self, values):
        probs = softmax(Tensor(values), axis=-1).numpy()
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    @SETTINGS
    @given(random_array())
    def test_relu_is_idempotent(self, values):
        a = Tensor(values)
        assert np.allclose(a.relu().relu().numpy(), a.relu().numpy())


class TestGradientProperties:
    @SETTINGS
    @given(random_array())
    def test_sum_gradient_is_ones(self, values):
        a = Tensor(values, requires_grad=True)
        a.sum().backward()
        assert np.allclose(a.grad, np.ones_like(values))

    @SETTINGS
    @given(random_array())
    def test_linear_combination_gradcheck(self, values):
        a = Tensor(values, requires_grad=True)
        b = Tensor(values * 0.5 + 0.1, requires_grad=True)

        def fn(inputs):
            x, y = inputs
            return (x * y + x - y * 2.0).sum()

        assert check_gradients(fn, [a, b])

    @SETTINGS
    @given(random_array())
    def test_mean_and_sum_gradients_are_proportional(self, values):
        a = Tensor(values, requires_grad=True)
        a.mean().backward()
        mean_grad = a.grad.copy()
        a.zero_grad()
        a.sum().backward()
        sum_grad = a.grad
        assert np.allclose(mean_grad * values.size, sum_grad)

    @SETTINGS
    @given(random_array(), random_array())
    def test_broadcast_gradients_have_input_shapes(self, left, right):
        a = Tensor(left, requires_grad=True)
        b = Tensor(right[:1, :left.shape[1]] if right.shape[1] >= left.shape[1]
                   else np.ones((1, left.shape[1])), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == a.shape
        assert b.grad.shape == b.shape


#: Steps of a random expression DAG.  Each maps two ``n x n`` operands and
#: ``n`` to a new ``n x n`` node; operands are picked from the pool modulo
#: its size, so earlier nodes (leaves included) are reused.
DAG_STEPS = {
    "add": lambda a, b, n: a + b,
    "mul": lambda a, b, n: a * b.tanh(),
    "matmul": lambda a, b, n: (a @ b) * (1.0 / n),
    "transpose": lambda a, b, n: a.T,
    "reshape": lambda a, b, n: a.T.reshape(n * n).reshape(n, n) - b,
    "concat_rows": lambda a, b, n: Tensor.concat([a, b], axis=0)[1:n + 1],
    "concat_cols": lambda a, b, n: Tensor.concat([a, b.T], axis=1)[:, n - 1:2 * n - 1],
    "sum_broadcast": lambda a, b, n: a.sum(axis=0, keepdims=True) + b.sum(axis=1) + b,
    "getitem": lambda a, b, n: a[np.arange(n)[::-1] % max(1, n - 1)],
    "exp": lambda a, b, n: (a * 0.1).exp(),
    "max": lambda a, b, n: a.max(axis=0, keepdims=True) + b,
}


@st.composite
def expression_dags(draw):
    side = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    steps = draw(st.lists(st.tuples(st.sampled_from(sorted(DAG_STEPS)),
                                    st.integers(0, 63), st.integers(0, 63)),
                          min_size=1, max_size=12))
    roots = draw(st.lists(st.integers(0, 63), min_size=1, max_size=4))
    return side, seed, steps, roots


def _leaf_gradients(side, seed, steps, roots):
    rng = np.random.default_rng(seed)
    # One Fortran-ordered leaf: a max over it hands back a fresh F-ordered
    # gradient, which must be copied into C order rather than adopted.
    leaves = [Tensor(layout(rng.normal(size=(side, side))), requires_grad=True)
              for layout in (np.asarray, np.asarray, np.asfortranarray)]
    pool = list(leaves)
    for name, first, second in steps:
        pool.append(DAG_STEPS[name](pool[first % len(pool)],
                                    pool[second % len(pool)], side))
    loss = pool[-1].sum()
    for pick in roots:
        loss = loss + (pool[pick % len(pool)] * rng.normal(size=(side, side))).sum()
    loss.backward()
    return [leaf.grad for leaf in leaves]


class TestInPlaceAccumulation:
    @SETTINGS
    @given(expression_dags())
    def test_leaf_gradients_match_copy_every_first_gradient(self, dag):
        gradients = _leaf_gradients(*dag)
        with copy_every_first_gradient():
            expected = _leaf_gradients(*dag)
        for grad, reference in zip(gradients, expected):
            if reference is None:
                assert grad is None
                continue
            assert np.array_equal(grad, reference, equal_nan=True)
            assert grad.flags.c_contiguous == reference.flags.c_contiguous
            assert grad.flags.writeable
