"""Finite-difference checks for the reverse-mode tape."""

import numpy as np

from fedgame.autodiff import Tensor


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return grad


def square(t):
    return t * t


def check_grad(build, x, rtol=1e-6, atol=1e-8):
    """Compare tape gradient of build(Tensor(x)) against finite differences."""
    t = Tensor(x)
    loss = build(t)
    loss.backward()
    expected = numeric_grad(lambda v: float(build(Tensor(v)).data), x.copy())
    np.testing.assert_allclose(t.grad, expected, rtol=rtol, atol=atol)


def test_add_mul_broadcast_grad():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4))
    row = rng.normal(size=4)
    check_grad(lambda t: ((t * 2.0 + row) * t).sum(), x)


def test_broadcast_unreduces_to_operand_shape():
    x = Tensor(np.ones(4))
    y = Tensor(np.ones((3, 4)))
    (x + y).sum().backward()
    np.testing.assert_array_equal(x.grad, np.full(4, 3.0))
    np.testing.assert_array_equal(y.grad, np.ones((3, 4)))


def test_matmul_grads_all_arities():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    v = rng.normal(size=4)
    check_grad(lambda t: (t @ b).sum(), a)
    check_grad(lambda t: (Tensor(a) @ t).sum(), b)
    check_grad(lambda t: (Tensor(a) @ t).sum(), v.copy())
    check_grad(lambda t: (t @ Tensor(b)).sum(), v.copy())
    check_grad(lambda t: t @ Tensor(v), v.copy())


def test_nonlinearity_grads():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 5))
    check_grad(lambda t: t.tanh().sum(), x)
    check_grad(lambda t: t.sigmoid().sum(), x)


def test_reductions_and_reshape_grads():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4))
    check_grad(lambda t: t.mean(), x)
    check_grad(lambda t: square(t.sum(axis=0)).sum(), x)
    check_grad(lambda t: square(t.mean(axis=1)).sum(), x)
    check_grad(lambda t: square(t.reshape(2, 6)).sum(), x)


def test_getitem_slice_and_duplicate_fancy_index():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 3))
    check_grad(lambda t: square(t[1:3, :]).sum(), x)

    t = Tensor(np.arange(4.0))
    picked = t[np.array([0, 0, 2])]
    picked.sum().backward()
    np.testing.assert_array_equal(t.grad, np.array([2.0, 0.0, 1.0, 0.0]))


def test_reused_node_accumulates_both_paths():
    x = Tensor(np.array([2.0]))
    y = x * x + x * 3.0
    y.sum().backward()
    # d/dx (x^2 + 3x) = 2x + 3
    np.testing.assert_allclose(x.grad, np.array([7.0]))


def test_backward_handles_deep_chains():
    x = Tensor(np.array([1.0]))
    node = x
    for _ in range(3000):
        node = node + 1.0
    node.sum().backward()
    np.testing.assert_array_equal(x.grad, np.array([1.0]))


def test_composite_network_gradient():
    rng = np.random.default_rng(6)
    w1 = rng.normal(size=(5, 4))
    w2 = rng.normal(size=(4, 2))
    x = rng.normal(size=(3, 5))

    def loss(t):
        h = (Tensor(x) @ t).tanh()
        return square((h @ w2).sigmoid()).mean()

    check_grad(loss, w1, rtol=1e-5)
