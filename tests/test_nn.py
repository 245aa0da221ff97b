from __future__ import annotations

import numpy as np
import pytest

from replaykit.errors import CheckpointError, IntegrityError, NumericalError
from replaykit.nn import (
    Gradients,
    Mlp,
    adam_init,
    adam_step,
    backward,
    clone_mlp,
    forward,
    hard_copy,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
    soft_update,
)

H = 1e-5  # central-difference step
REL_TOL = 1e-4


def numerical_param_gradients(net: Mlp, x: np.ndarray, loss) -> Gradients:
    """Central finite differences of loss(forward(net, x)) in every
    parameter."""

    def loss_value() -> float:
        y, _ = forward(net, x)
        return float(loss(y))

    grads = Gradients(weights=[], biases=[])
    for params, out in ((net.weights, grads.weights), (net.biases, grads.biases)):
        for p in params:
            g = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                original = p[idx]
                p[idx] = original + H
                plus = loss_value()
                p[idx] = original - H
                minus = loss_value()
                p[idx] = original
                g[idx] = (plus - minus) / (2.0 * H)
                it.iternext()
            out.append(g)
    return grads


def numerical_input_gradient(net: Mlp, x: np.ndarray, loss) -> np.ndarray:
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + H
        plus = float(loss(forward(net, x)[0]))
        x[idx] = original - H
        minus = float(loss(forward(net, x)[0]))
        x[idx] = original
        g[idx] = (plus - minus) / (2.0 * H)
        it.iternext()
    return g


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def random_net(rng: np.random.Generator) -> Mlp:
    sizes = [int(rng.integers(2, 7)) for _ in range(4)]
    hidden = "tanh" if rng.random() < 0.5 else "relu"
    output = "tanh" if rng.random() < 0.5 else "identity"
    scale = 2.0 if output == "tanh" else 1.0
    return init_mlp(sizes, rng, hidden_activation=hidden, output_activation=output,
                    output_scale=scale)


def test_init_bounds_and_final_layer_scale() -> None:
    rng = np.random.default_rng(40)
    net = init_mlp([10, 20, 3], rng, final_layer_scale=1e-3)
    assert np.abs(net.weights[0]).max() <= 1.0 / np.sqrt(10)
    assert np.abs(net.weights[1]).max() <= 1e-3 / np.sqrt(20)
    assert np.abs(net.biases[1]).max() <= 1e-3 / np.sqrt(20)
    with pytest.raises(ValueError):
        init_mlp([4], rng)
    with pytest.raises(ValueError):
        init_mlp([4, 0, 2], rng)
    with pytest.raises(ValueError):
        init_mlp([4, 2], rng, hidden_activation="sigmoid")


def test_forward_single_affine_layer() -> None:
    net = Mlp((1, 1), "tanh", "identity", 1.0, [np.array([[2.0]])], [np.array([1.0])])
    y, _ = forward(net, np.array([3.0]))
    assert y == pytest.approx([7.0])


def test_forward_zero_parameters_zero_output() -> None:
    rng = np.random.default_rng(41)
    net = init_mlp([3, 5, 2], rng)
    for w in net.weights:
        w[...] = 0.0
    for b in net.biases:
        b[...] = 0.0
    y, _ = forward(net, rng.normal(size=3))
    assert y == pytest.approx([0.0, 0.0])


def test_forward_batch_matches_per_row() -> None:
    rng = np.random.default_rng(42)
    net = random_net(rng)
    xs = rng.normal(size=(6, net.input_dim))
    batch_y, _ = forward(net, xs)
    for i in range(6):
        row_y, _ = forward(net, xs[i])
        assert row_y == pytest.approx(batch_y[i])


def test_forward_shape_error() -> None:
    rng = np.random.default_rng(43)
    net = init_mlp([4, 3, 2], rng)
    with pytest.raises(ValueError):
        forward(net, np.zeros(5))


def test_tanh_output_scaling() -> None:
    rng = np.random.default_rng(44)
    net = init_mlp([2, 4, 1], rng, output_activation="tanh", output_scale=2.0)
    for _ in range(50):
        y, _ = forward(net, rng.normal(scale=10.0, size=2))
        assert -2.0 <= y[0] <= 2.0


def test_backward_linear_input_gradient() -> None:
    w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    net = Mlp((3, 2), "tanh", "identity", 1.0, [w], [np.zeros(2)])
    x = np.array([1.0, -1.0, 0.5])
    _, cache = forward(net, x)
    gy = np.array([1.0, 1.0])
    grads, gx = backward(net, cache, gy)
    assert gx == pytest.approx(w @ gy)
    assert grads.weights[0] == pytest.approx(np.outer(x, gy))
    assert grads.biases[0] == pytest.approx(gy)


def test_gradients_match_finite_differences() -> None:
    rng = np.random.default_rng(45)
    for _ in range(10):
        net = random_net(rng)
        x = rng.normal(size=net.input_dim)
        coeffs = rng.normal(size=net.output_dim)

        def loss(y):
            return np.sum(coeffs * y)

        y, cache = forward(net, x)
        analytic, gx = backward(net, cache, coeffs)
        numeric = numerical_param_gradients(net, x, loss)
        for a, n in zip(analytic.weights + analytic.biases,
                        numeric.weights + numeric.biases):
            assert relative_error(a, n) < REL_TOL
        assert relative_error(gx, numerical_input_gradient(net, x, loss)) < REL_TOL


def test_batch_squared_loss_gradient_matches() -> None:
    rng = np.random.default_rng(46)
    net = init_mlp([3, 8, 8, 2], rng)
    xs = rng.normal(size=(5, 3))
    targets = rng.normal(size=(5, 2))

    y, cache = forward(net, xs)
    analytic, _ = backward(net, cache, 2.0 * (y - targets) / len(xs))

    def loss(out):
        return np.mean(np.sum((out - targets) ** 2, axis=1))

    flat = xs  # finite differences around the same batch

    def loss_at() -> float:
        out, _ = forward(net, flat)
        return float(loss(out))

    for params, analytic_group in ((net.weights, analytic.weights),
                                   (net.biases, analytic.biases)):
        for p, a in zip(params, analytic_group):
            it = np.nditer(p, flags=["multi_index"])
            checked = 0
            while not it.finished and checked < 20:
                idx = it.multi_index
                original = p[idx]
                p[idx] = original + H
                plus = loss_at()
                p[idx] = original - H
                minus = loss_at()
                p[idx] = original
                numeric = (plus - minus) / (2.0 * H)
                assert a[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7)
                checked += 1
                it.iternext()


def test_backward_rejects_stale_cache() -> None:
    rng = np.random.default_rng(47)
    net = init_mlp([3, 4, 2], rng)
    x = rng.normal(size=3)
    _, cache = forward(net, x)
    state = adam_init(net, 1e-3)
    grads = Gradients(
        weights=[np.ones_like(w) for w in net.weights],
        biases=[np.ones_like(b) for b in net.biases],
    )
    adam_step(net, grads, state)  # bumps the version
    with pytest.raises(IntegrityError):
        backward(net, cache, np.ones(2))


def test_adam_zero_gradient_is_fixed_point() -> None:
    rng = np.random.default_rng(48)
    net = init_mlp([3, 4, 2], rng)
    before = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
    state = adam_init(net, 1e-2)
    zeros = Gradients(
        weights=[np.zeros_like(w) for w in net.weights],
        biases=[np.zeros_like(b) for b in net.biases],
    )
    for _ in range(3):
        adam_step(net, zeros, state)
    after = net.weights + net.biases
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_adam_first_step_matches_hand_computation() -> None:
    # one parameter, gradient g: first Adam step moves by
    # -lr * g / (|g| + eps) regardless of g's magnitude
    net = Mlp((1, 1), "tanh", "identity", 1.0, [np.array([[0.5]])], [np.array([0.0])])
    state = adam_init(net, 1e-3)
    g = 7.3
    grads = Gradients(weights=[np.array([[g]])], biases=[np.array([0.0])])
    adam_step(net, grads, state)
    m_hat = g  # m / (1 - beta1)
    v_hat = g * g
    expected = 0.5 - 1e-3 * m_hat / (np.sqrt(v_hat) + state.epsilon)
    assert net.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)


def test_adam_rejects_nonfinite_gradients() -> None:
    rng = np.random.default_rng(49)
    net = init_mlp([2, 2], rng)
    state = adam_init(net, 1e-3)
    bad = Gradients(
        weights=[np.array([[np.nan, 0.0], [0.0, 0.0]])],
        biases=[np.zeros(2)],
    )
    with pytest.raises(NumericalError):
        adam_step(net, bad, state)


def test_adam_descends_a_quadratic() -> None:
    rng = np.random.default_rng(50)
    net = init_mlp([2, 16, 1], rng)
    xs = rng.normal(size=(64, 2))
    targets = (xs[:, :1] * 2.0) - (xs[:, 1:] * 0.5)
    state = adam_init(net, 1e-2)
    first_loss = None
    for _ in range(400):
        y, cache = forward(net, xs)
        err = y - targets
        loss = float(np.mean(err**2))
        if first_loss is None:
            first_loss = loss
        grads, _ = backward(net, cache, 2.0 * err / len(xs))
        adam_step(net, grads, state)
    assert loss < first_loss * 0.01


def test_hard_copy_is_deep() -> None:
    rng = np.random.default_rng(51)
    online = init_mlp([3, 4, 2], rng)
    target = init_mlp([3, 4, 2], rng)
    hard_copy(target, online)
    for t, o in zip(target.weights, online.weights):
        assert np.array_equal(t, o)
    online.weights[0][0, 0] += 100.0
    assert target.weights[0][0, 0] != online.weights[0][0, 0]


def test_soft_update_extremes_and_blend() -> None:
    rng = np.random.default_rng(52)
    online = init_mlp([2, 3, 1], rng)
    target = init_mlp([2, 3, 1], rng)
    frozen = clone_mlp(target)

    soft_update(target, online, 0.0)
    for t, f in zip(target.weights + target.biases, frozen.weights + frozen.biases):
        assert np.array_equal(t, f)

    half = clone_mlp(frozen)
    soft_update(half, online, 0.5)
    for h, f, o in zip(half.weights, frozen.weights, online.weights):
        assert h == pytest.approx(0.5 * f + 0.5 * o)

    full = clone_mlp(frozen)
    soft_update(full, online, 1.0)
    for f_, o in zip(full.weights, online.weights):
        assert np.array_equal(f_, o)


def test_soft_update_contraction() -> None:
    rng = np.random.default_rng(53)
    online = init_mlp([2, 3, 1], rng)
    target = init_mlp([2, 3, 1], rng)
    tau = 0.05
    gap_before = [t - o for t, o in zip(target.weights, online.weights)]
    soft_update(target, online, tau)
    for before, t, o in zip(gap_before, target.weights, online.weights):
        assert np.max(np.abs((t - o) - (1.0 - tau) * before)) < 1e-12


def test_soft_update_validates() -> None:
    rng = np.random.default_rng(54)
    a = init_mlp([2, 3, 1], rng)
    b = init_mlp([2, 4, 1], rng)
    with pytest.raises(ValueError):
        soft_update(a, b, 0.5)
    c = init_mlp([2, 3, 1], rng)
    with pytest.raises(ValueError):
        soft_update(a, c, 1.5)


def test_checkpoint_round_trip_exact(tmp_path) -> None:
    rng = np.random.default_rng(55)
    nets = {
        "q": init_mlp([4, 64, 2], rng),
        "actor": init_mlp([3, 8, 1], rng, output_activation="tanh", output_scale=2.0),
    }
    meta = {"env": "pendulum", "agent": "ddpg", "hindsight": "false"}
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, nets, meta)
    loaded, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert set(loaded) == {"q", "actor"}
    for name, net in nets.items():
        other = loaded[name]
        assert other.layer_sizes == net.layer_sizes
        assert other.hidden_activation == net.hidden_activation
        assert other.output_activation == net.output_activation
        assert other.output_scale == net.output_scale
        for w1, w2 in zip(net.weights, other.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(net.biases, other.biases):
            assert np.array_equal(b1, b2)


def test_checkpoint_bad_file(tmp_path) -> None:
    path = tmp_path / "junk.txt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "missing.txt")
    # a net section cut off after its layer sizes, and a binary file
    path.write_text("mlp-checkpoint-v1\nmeta env cartpole\nnet q\nlayers 4 2\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_failed_write_keeps_earlier_file(tmp_path) -> None:
    rng = np.random.default_rng(56)
    nets = {"q": init_mlp([4, 8, 2], rng)}
    path = tmp_path / "checkpoint.txt"
    save_checkpoint(path, nets, {"env": "cartpole"})
    earlier = path.read_bytes()
    # The non-ASCII value fails to encode after the temp file is opened.
    with pytest.raises(UnicodeEncodeError):
        save_checkpoint(path, nets, {"env": "cartpole", "note": "caf\u00e9"})
    assert path.read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.txt"]
