import numpy as np
import pytest

from offloadlab.nn import MLP, Adam, numerical_gradients, sgd_step


def _zero(net):
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0


def test_zero_network_outputs_zero():
    net = MLP([3, 4, 2], np.random.default_rng(0))
    _zero(net)
    out = net.forward(np.ones((5, 3)))
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_hand_set_single_layer_forward():
    net = MLP([2, 2], np.random.default_rng(0))
    net.weights[0][:] = [[1.0, 2.0], [3.0, 4.0]]
    net.biases[0][:] = [0.5, -0.5]
    out = net.forward(np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(out, [[3.5, 6.5]], rtol=0, atol=0)


def test_hidden_relu_and_linear_output():
    net = MLP([1, 1, 1], np.random.default_rng(0))
    net.weights[0][:] = [[-1.0]]
    net.biases[0][:] = [0.0]
    net.weights[1][:] = [[5.0]]
    net.biases[1][:] = [-0.25]
    # positive input is killed by the hidden ReLU; output layer stays affine
    np.testing.assert_allclose(net.forward(np.array([[2.0]])), [[-0.25]])
    np.testing.assert_allclose(net.forward(np.array([[-2.0]])), [[9.75]])


def test_output_relu_option():
    net = MLP([1, 1], np.random.default_rng(0), out_relu=True)
    net.weights[0][:] = [[1.0]]
    net.biases[0][:] = [-1.0]
    np.testing.assert_allclose(net.forward(np.array([[0.5]])), [[0.0]])
    np.testing.assert_allclose(net.forward(np.array([[3.0]])), [[2.0]])


def test_hand_computed_backward_one_hidden_unit():
    # x=1, W1=0.5, b1=0.1, W2=2, b2=0, target 1, squared error:
    # out=1.2, dL/dout=0.4 -> dW2=0.24, db2=0.4, dW1=0.8, db1=0.8
    net = MLP([1, 1, 1], np.random.default_rng(0))
    net.weights[0][:] = [[0.5]]
    net.biases[0][:] = [0.1]
    net.weights[1][:] = [[2.0]]
    net.biases[1][:] = [0.0]
    x = np.array([[1.0]])
    out, cache = net.forward_cache(x)
    assert out[0, 0] == pytest.approx(1.2, rel=1e-12)
    grad_out = 2.0 * (out - 1.0)
    grad_w, grad_b, _ = net.backward(cache, grad_out)
    assert grad_w[1][0, 0] == pytest.approx(0.24, abs=1e-12)
    assert grad_b[1][0] == pytest.approx(0.4, abs=1e-12)
    assert grad_w[0][0, 0] == pytest.approx(0.8, abs=1e-12)
    assert grad_b[0][0] == pytest.approx(0.8, abs=1e-12)


def _relative_error(analytic, numeric):
    num = np.linalg.norm(analytic - numeric)
    den = np.linalg.norm(analytic) + np.linalg.norm(numeric) + 1e-12
    return num / den


@pytest.mark.parametrize("sizes", [[2, 3, 2], [4, 8, 8, 3], [1, 1, 1]])
def test_backprop_matches_finite_differences(sizes):
    rng = np.random.default_rng(42)
    net = MLP(sizes, rng)
    # randomize biases too: the zero default parks dead rows exactly on the
    # ReLU kink, where the subgradient and the symmetric difference disagree
    for b in net.biases:
        b[:] = rng.normal(0.0, 0.1, b.shape)
    x = rng.normal(size=(6, sizes[0]))
    target = rng.normal(size=(6, sizes[-1]))

    def loss_fn():
        diff = net.forward(x) - target
        return float((diff * diff).mean())

    out, cache = net.forward_cache(x)
    grad_out = 2.0 * (out - target) / out.size
    grad_w, grad_b, _ = net.backward(cache, grad_out)
    analytic = []
    for w, b in zip(grad_w, grad_b):
        analytic.extend([w, b])
    numeric = numerical_gradients(loss_fn, net.parameters())
    for a, n in zip(analytic, numeric):
        assert _relative_error(a, n) < 1e-4


def test_gradient_wrt_input():
    rng = np.random.default_rng(7)
    net = MLP([3, 5, 2], rng)
    x = rng.normal(size=(1, 3))
    out, cache = net.forward_cache(x)
    grad_out = np.ones_like(out)
    _, _, grad_x = net.backward(cache, grad_out)
    eps = 1e-6
    for j in range(3):
        xp, xm = x.copy(), x.copy()
        xp[0, j] += eps
        xm[0, j] -= eps
        numeric = (net.forward(xp).sum() - net.forward(xm).sum()) / (2 * eps)
        assert grad_x[0, j] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("batch", [1, 7, 128])
def test_forward_matches_the_textbook_expression_bit_for_bit(batch):
    # the passes add biases and apply ReLUs in place; every value must still
    # be that of relu(h @ W.T + b), layer by layer
    rng = np.random.default_rng(batch)
    net = MLP([16, 32, 8], rng, out_relu=True)
    for b in net.biases:
        b[:] = rng.normal(0.0, 0.1, b.shape)
    x = rng.normal(size=(batch, 16))
    keep = x.copy()
    want = x
    for w, b in zip(net.weights, net.biases):
        want = np.maximum(want @ w.T + b, 0.0)
    assert net.forward(x).tobytes() == want.tobytes()
    assert net.forward_cache(x)[0].tobytes() == want.tobytes()
    assert x.tobytes() == keep.tobytes()


@pytest.mark.parametrize("sizes, out_relu", [([3, 5, 2], False), ([16, 32, 8], True),
                                              ([4, 1], False), ([10, 64, 64, 3], False)])
@pytest.mark.parametrize("batch", [1, 64])
def test_backward_without_input_gradient_writes_the_same_grad_bits(sizes, out_relu, batch):
    rng = np.random.default_rng(len(sizes) * batch)
    net = MLP(sizes, rng, out_relu=out_relu)
    for b in net.biases:
        b[:] = rng.normal(0.0, 0.1, b.shape)
    out, cache = net.forward_cache(rng.normal(size=(batch, sizes[0])))
    grad_out = rng.normal(size=out.shape)
    _, _, grad_x = net.backward(cache, grad_out)
    assert grad_x.shape == (batch, sizes[0])
    want = net.grad.copy()
    net.grad[:] = np.nan
    _, _, skipped = net.backward(cache, grad_out, input_grad=False)
    assert skipped is None
    assert net.grad.tobytes() == want.tobytes()


def test_sgd_step_is_plain_descent():
    params = [np.array([1.0, 2.0]), np.array([[3.0]])]
    grads = [np.array([0.5, -1.0]), np.array([[2.0]])]
    sgd_step(params, grads, lr=0.1)
    np.testing.assert_allclose(params[0], [0.95, 2.1])
    np.testing.assert_allclose(params[1], [[2.8]])


def test_adam_first_step_magnitude():
    # bias-corrected first step moves by ~lr regardless of gradient scale
    opt = Adam(lr=0.01)
    params = [np.array([0.0])]
    opt.step(params, [np.array([5.0])])
    assert params[0][0] == pytest.approx(-0.01, rel=1e-6)


def test_adam_state_tracks_parameters():
    opt = Adam(lr=0.1)
    params = [np.array([0.0])]
    for _ in range(50):
        opt.step(params, [np.array([2.0 * params[0][0] - 4.0])])
    # steady descent on a quadratic with minimum at 2
    assert abs(params[0][0] - 2.0) < 1.0


def test_adam_matches_the_textbook_update_bit_for_bit():
    # the in-place update keeps the textbook expression's operation order
    rng = np.random.default_rng(3)
    p = rng.normal(size=1000)
    want, m, v = p.copy(), np.zeros(1000), np.zeros(1000)
    opt = Adam(lr=1e-3)
    for t in range(1, 21):
        g = rng.normal(size=1000)
        opt.step([p], [g])
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        want -= 1e-3 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        np.testing.assert_array_equal(p, want)


def test_adam_flushes_subnormal_first_moments_without_moving_parameters():
    # a gradient held at 0 decays m by beta1 per step into the subnormal
    # range, where arithmetic is slow; the flush leaves p's bits unchanged
    rng = np.random.default_rng(4)
    tiny = np.finfo(float).tiny
    p = rng.normal(size=1000)
    opt = Adam(lr=1e-3)
    opt.step([p], [rng.normal(size=1000)])
    m, v = opt._state[0][:2]
    m[:500] = rng.uniform(-1.0, 1.0, 500) * tiny  # subnormal or zero
    m[500:510] = [tiny, -tiny, 1.0 / 0.9 * tiny, -1e-300, 5e-324, -5e-324, 0.0, -0.0, 1e-3, -1e-3]
    want_m = 0.9 * m + (1.0 - 0.9) * 0.0
    want_v = 0.999 * v + (1.0 - 0.999) * 0.0
    want = p - 1e-3 * (want_m / (1.0 - 0.9**2)) / (np.sqrt(want_v / (1.0 - 0.999**2)) + 1e-8)
    opt.step([p], [np.zeros(1000)])
    assert np.count_nonzero((m != 0.0) & (np.abs(m) < tiny)) == 0
    assert np.all(m[:500] == 0.0)
    np.testing.assert_array_equal(m[500:], np.where(np.abs(want_m[500:]) < tiny, 0.0, want_m[500:]))
    np.testing.assert_array_equal(p, want)


def test_parameters_are_live_views():
    net = MLP([2, 2], np.random.default_rng(0))
    net.parameters()[0][:] = 0.0
    np.testing.assert_array_equal(net.weights[0], np.zeros((2, 2)))


def test_layers_are_views_into_theta_and_grad():
    rng = np.random.default_rng(0)
    net = MLP([3, 4, 2], rng)
    assert net.theta.shape == net.grad.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    np.testing.assert_array_equal(net.theta, np.concatenate([p.ravel() for p in net.parameters()]))
    out, cache = net.forward_cache(rng.normal(size=(5, 3)))
    grad_w, grad_b, _ = net.backward(cache, np.ones_like(out))
    for g in grad_w + grad_b:
        assert np.shares_memory(g, net.grad)
    np.testing.assert_array_equal(net.grad, np.concatenate(
        [a.ravel() for w, b in zip(grad_w, grad_b) for a in (w, b)]))


def test_copy_from_detaches_storage():
    rng = np.random.default_rng(0)
    a = MLP([2, 3, 1], rng)
    b = MLP([2, 3, 1], rng)
    b.copy_from(a)
    x = np.ones((1, 2))
    np.testing.assert_array_equal(a.forward(x), b.forward(x))
    a.weights[0][:] += 1.0
    assert not np.array_equal(a.forward(x), b.forward(x))


def test_mlp_validates_sizes():
    with pytest.raises(ValueError):
        MLP([3], np.random.default_rng(0))
    with pytest.raises(ValueError):
        MLP([3, 0, 2], np.random.default_rng(0))
