from __future__ import annotations

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replaykit.agents import AGENTS, scaler_for
from replaykit.config import RunConfig
from replaykit.envs import env_names, env_spec
from replaykit import nn
from replaykit.errors import CheckpointError, IntegrityError, NumericalError
from replaykit.nn import (
    HIDDEN_ACTIVATIONS,
    OUTPUT_ACTIVATIONS,
    Mlp,
    NetworkPair,
    adam_init,
    adam_step,
    backward,
    forward,
    forward_pair,
    hard_copy,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
    soft_update,
)

H = 1e-5  # central-difference step
REL_TOL = 1e-4


def numerical_param_gradients(net: Mlp, x: np.ndarray, loss) -> np.ndarray:
    """Central finite differences of loss(forward(net, x)) in every
    parameter, laid out like ``net.params``."""

    def loss_value() -> float:
        y, _ = forward(net, x)
        return float(loss(y))

    grad = np.zeros_like(net.params)
    for k in range(net.params.size):
        original = net.params[k]
        net.params[k] = original + H
        plus = loss_value()
        net.params[k] = original - H
        minus = loss_value()
        net.params[k] = original
        grad[k] = (plus - minus) / (2.0 * H)
    return grad


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
    y, _ = forward(net, np.array([3.0])[None])
    assert y[0] == pytest.approx([7.0])


def test_forward_zero_parameters_zero_output() -> None:
    rng = np.random.default_rng(41)
    net = init_mlp([3, 5, 2], rng)
    for w in net.weights:
        w[...] = 0.0
    for b in net.biases:
        b[...] = 0.0
    y, _ = forward(net, rng.normal(size=3)[None])
    assert y[0] == pytest.approx([0.0, 0.0])


def test_forward_batch_matches_per_row() -> None:
    rng = np.random.default_rng(42)
    net = random_net(rng)
    xs = rng.normal(size=(6, net.input_dim))
    batch_y, _ = forward(net, xs)
    for i in range(6):
        row_y, _ = forward(net, xs[i][None])
        assert row_y[0] == pytest.approx(batch_y[i])


def test_forward_shape_error() -> None:
    rng = np.random.default_rng(43)
    net = init_mlp([4, 3, 2], rng)
    with pytest.raises(ValueError):
        forward(net, np.zeros(5))


def test_tanh_output_scaling() -> None:
    rng = np.random.default_rng(44)
    net = init_mlp([2, 4, 1], rng, output_activation="tanh", output_scale=2.0)
    for _ in range(50):
        y, _ = forward(net, rng.normal(scale=10.0, size=2)[None])
        assert -2.0 <= y[0, 0] <= 2.0


def test_backward_linear_input_gradient() -> None:
    w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    net = Mlp((3, 2), "tanh", "identity", 1.0, [w], [np.zeros(2)])
    x = np.array([1.0, -1.0, 0.5])
    _, cache = forward(net, x[None])
    gy = np.array([1.0, 1.0])
    grad, gx = backward(net, cache, gy[None])
    d_weights, d_biases = net.split(grad)
    assert gx[0] == pytest.approx(w @ gy)
    assert d_weights[0] == pytest.approx(np.outer(x, gy))
    assert d_biases[0] == pytest.approx(gy)


def test_gradients_match_finite_differences() -> None:
    rng = np.random.default_rng(45)
    for _ in range(10):
        net = random_net(rng)
        x = rng.normal(size=net.input_dim)[None]
        coeffs = rng.normal(size=net.output_dim)[None]

        def loss(y):
            return np.sum(coeffs * y)

        y, cache = forward(net, x)
        analytic, gx = backward(net, cache, coeffs)
        numeric = numerical_param_gradients(net, x, loss)
        for a, n in zip(sum(net.split(analytic), []), sum(net.split(numeric), [])):
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

    for params, analytic_group in zip((net.weights, net.biases), net.split(analytic)):
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
    _, cache = forward(net, x[None])
    state = adam_init(net, 1e-3)
    adam_step(net, np.ones_like(net.params), state)  # bumps the version
    with pytest.raises(IntegrityError):
        backward(net, cache, np.ones(2)[None])


def test_backward_rejects_stacked_rows_cache() -> None:
    rng = np.random.default_rng(48)
    net = init_mlp([3, 4, 2], rng)
    _, cache = forward(net, rng.normal(size=(5, 1, 3)))
    with pytest.raises(ValueError, match="stack of rows"):
        backward(net, cache, np.ones((5, 1, 2)))


def test_backward_rejects_cache_overwritten_by_later_forward() -> None:
    rng = np.random.default_rng(62)
    net = init_mlp([3, 5, 4, 2], rng)
    gy = rng.normal(size=(6, 2))
    _, first = forward(net, rng.normal(size=(6, 3)))
    x = rng.normal(size=(6, 3))
    _, second = forward(net, x)  # same row count: reuses the workspace
    with pytest.raises(IntegrityError, match="later forward"):
        backward(net, first, gy)
    # Another row count has a workspace of its own and leaves it valid.
    _, other = forward(net, rng.normal(size=(4, 3)))
    _, one_row = forward(net, rng.normal(size=3)[None])
    grad, dx = backward(net, second, gy)
    grad = grad.copy()  # the next backward rewrites the workspace gradient
    fresh_grad, fresh_dx = backward(net, forward(net, x)[1], gy)
    assert same_bits(grad, fresh_grad) and same_bits(dx, fresh_dx)
    backward(net, other, np.ones((4, 2)))
    backward(net, one_row, np.ones(2)[None])


def test_forward_that_raises_still_invalidates_older_caches() -> None:
    # Weights of 1e200: outputs of 12 * 1e200 * x, which overflow once
    # x is near 1 but not while the hidden layer is written.
    net = Mlp((3, 4, 2), "relu", "identity", 1.0,
              [np.full((3, 4), 1e200), np.full((4, 2), 1e200)], [np.zeros(4), np.zeros(2)])
    _, cache = forward(net, np.full((5, 3), 1e-200))
    with pytest.raises(NumericalError), np.errstate(over="ignore"):
        forward(net, np.ones((5, 3)))
    with pytest.raises(IntegrityError):
        backward(net, cache, np.ones((5, 2)))


def test_outputs_and_input_gradients_are_fresh() -> None:
    rng = np.random.default_rng(64)
    net = init_mlp([3, 6, 2], rng, output_activation="tanh")
    for x in (rng.normal(size=(5, 3)), rng.normal(size=3)[None]):
        y1, c1 = forward(net, x)
        _, dx1 = backward(net, c1, np.ones_like(y1))
        y2, c2 = forward(net, x)
        _, dx2 = backward(net, c2, np.ones_like(y2))
        assert same_bits(y1, y2) and same_bits(dx1, dx2)
        assert not np.shares_memory(y1, y2)
        assert not np.shares_memory(dx1, dx2)


@pytest.mark.parametrize("shape", [(5, 2, 3), (5, 1, 4), (2, 5, 1, 3), (3,)])
def test_forward_rejects_other_stacks(shape) -> None:
    net = init_mlp([3, 4, 2], np.random.default_rng(49))
    with pytest.raises(ValueError, match="stack of rows"):
        forward(net, np.zeros(shape))


def test_adam_zero_gradient_is_fixed_point() -> None:
    rng = np.random.default_rng(48)
    net = init_mlp([3, 4, 2], rng)
    before = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
    state = adam_init(net, 1e-2)
    zeros = np.zeros_like(net.params)
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
    adam_step(net, np.array([g, 0.0]), state)  # W0, then b0
    m_hat = g  # m / (1 - beta1)
    v_hat = g * g
    expected = 0.5 - 1e-3 * m_hat / (np.sqrt(v_hat) + state.epsilon)
    assert net.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)


def test_adam_rejects_nonfinite_gradients() -> None:
    rng = np.random.default_rng(49)
    net = init_mlp([2, 2], rng)
    state = adam_init(net, 1e-3)
    bad = np.zeros_like(net.params)
    bad[0] = np.nan  # W0[0, 0]
    with pytest.raises(NumericalError):
        adam_step(net, bad, state)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e200, -1e300])
def test_adam_gate_raises_exactly_on_a_nonfinite_entry(value) -> None:
    # The gate reads the sum of squares first; finite entries that
    # overflow it must still pass, through the entry-wise scan.
    net = init_mlp([2, 3], np.random.default_rng(51))
    state = adam_init(net, 1e-3)
    grad = np.full(net.params.size, 1e-3)
    grad[4] = value
    if math.isfinite(value):
        # The entry's square overflows, in the gate and in v.
        with np.errstate(over="ignore"):
            adam_step(net, grad, state)
        assert state.step == 1 and np.isfinite(net.params).all()
    else:
        with pytest.raises(NumericalError):
            adam_step(net, grad, state)
        assert state.step == 0


def test_adam_flush_leaves_no_moment_below_the_floor_and_moves_no_parameter(
    monkeypatch,
) -> None:
    # Moments on both sides of the floor, of both signs, next to ordinary
    # ones, and one step with zero gradient, which shrinks each by beta1.
    floor, period = nn.MOMENT_FLOOR, nn.MOMENT_FLUSH_PERIOD
    rng = np.random.default_rng(52)
    net = init_mlp([4, 16, 2], rng, hidden_activation="relu")
    state = adam_init(net, 1e-3)
    factors = np.array([1e-100, 1e-3, 0.5, 0.95, 1.0, 1.05, 1.2, 10.0, 1e100, 1e196])
    signs = rng.choice([-1.0, 1.0], size=state.m.size)
    state.m[:] = signs * floor * rng.choice(factors, size=state.m.size)
    state.m[::7] = rng.normal(scale=1e-3, size=state.m[::7].size)
    state.v[:] = rng.uniform(0.0, 1e-4, size=state.v.size)
    state.v[::5] = 0.0
    state.step = period - 1  # the next step flushes
    plain_net, plain_state = copy.deepcopy(net), copy.deepcopy(state)
    before = net.params.copy()
    zeros = np.zeros_like(net.params)
    adam_step(net, zeros, state)
    # The same step with nothing below the floor: no flush.
    monkeypatch.setattr(nn, "MOMENT_FLOOR", 0.0)
    adam_step(plain_net, zeros, plain_state)
    assert state.step == plain_state.step == period
    below = (plain_state.m != 0.0) & (np.abs(plain_state.m) < floor)
    assert below.sum() > state.m.size // 4
    assert not np.any((state.m != 0.0) & (np.abs(state.m) < floor))
    assert np.array_equal(state.m[~below], plain_state.m[~below])
    assert state.v.tobytes() == plain_state.v.tobytes()
    assert net.params.tobytes() == plain_net.params.tobytes()
    assert not np.array_equal(net.params, before)  # the ordinary moments moved it


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
        grad, _ = backward(net, cache, 2.0 * err / len(xs))
        adam_step(net, grad, state)
    assert loss < first_loss * 0.01


def paired(online: Mlp, target: Mlp) -> NetworkPair:
    """A pair of ``online`` and a target holding ``target``'s
    parameters."""
    pair = NetworkPair(online)
    pair.target.params[...] = target.params
    return pair


def test_hard_copy_is_deep() -> None:
    rng = np.random.default_rng(51)
    online = init_mlp([3, 4, 2], rng)
    target = init_mlp([3, 4, 2], rng)
    pair = paired(online, target)
    target = pair.target
    hard_copy(pair)
    for t, o in zip(target.weights, online.weights):
        assert np.array_equal(t, o)
    online.weights[0][0, 0] += 100.0
    assert target.weights[0][0, 0] != online.weights[0][0, 0]


def test_soft_update_extremes_and_blend() -> None:
    rng = np.random.default_rng(52)
    online = init_mlp([2, 3, 1], rng)
    target = init_mlp([2, 3, 1], rng)
    frozen = copy.deepcopy(target)

    pair = paired(online, target)
    target = pair.target
    soft_update(pair, 0.0)
    for t, f in zip(target.weights + target.biases, frozen.weights + frozen.biases):
        assert np.array_equal(t, f)

    half_pair = paired(copy.deepcopy(online), frozen)
    half = half_pair.target
    soft_update(half_pair, 0.5)
    for h, f, o in zip(half.weights, frozen.weights, online.weights):
        assert h == pytest.approx(0.5 * f + 0.5 * o)

    full_pair = paired(copy.deepcopy(online), frozen)
    full = full_pair.target
    soft_update(full_pair, 1.0)
    for f_, o in zip(full.weights, online.weights):
        assert np.array_equal(f_, o)


def test_soft_update_contraction() -> None:
    rng = np.random.default_rng(53)
    online = init_mlp([2, 3, 1], rng)
    target = init_mlp([2, 3, 1], rng)
    tau = 0.05
    gap_before = [t - o for t, o in zip(target.weights, online.weights)]
    pair = paired(online, target)
    target = pair.target
    soft_update(pair, tau)
    for before, t, o in zip(gap_before, target.weights, online.weights):
        assert np.max(np.abs((t - o) - (1.0 - tau) * before)) < 1e-12


def test_soft_update_validates() -> None:
    rng = np.random.default_rng(54)
    a = init_mlp([2, 3, 1], rng)
    c = init_mlp([2, 3, 1], rng)
    with pytest.raises(ValueError):
        soft_update(paired(a, c), 1.5)


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


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_weights_and_biases_are_views_of_params(tmp_path) -> None:
    rng = np.random.default_rng(57)
    built = Mlp((3, 2), "relu", "tanh", 2.0, [np.ones((3, 2))], [np.zeros(2)])
    initialized = init_mlp([4, 6, 5, 2], rng)
    save_checkpoint(tmp_path / "ckpt.txt", {"q": initialized})
    loaded = load_checkpoint(tmp_path / "ckpt.txt")[0]["q"]
    for net in (built, initialized, copy.deepcopy(initialized), loaded):
        sizes = net.layer_sizes
        assert net.params.shape == (sum((a + 1) * b for a, b in zip(sizes, sizes[1:])),)
        for view in net.weights + net.biases:
            assert np.shares_memory(net.params, view)
    # a copy owns its own vector
    assert not np.shares_memory(copy.deepcopy(initialized).params, initialized.params)
    built.weights[0][2, 1] = -4.0
    assert built.params[5] == -4.0  # W0 is row-major at the front


def test_mlp_rejects_bad_architecture_and_parameters() -> None:
    w, b = [np.zeros((2, 1))], [np.zeros(1)]
    for args in (
        ((2,), "tanh", "identity", 1.0, [], []),
        ((2, 1), "sigmoid", "identity", 1.0, w, b),
        ((2, 1), "tanh", "softmax", 1.0, w, b),
        ((2, 1), "tanh", "tanh", 0.0, w, b),
        ((2, 1), "tanh", "tanh", float("nan"), w, b),
        ((2, 1), "tanh", "identity", 1.0, [np.zeros((1, 2))], b),
        ((2, 1), "tanh", "identity", 1.0, [np.array([[np.inf], [0.0]])], b),
        ((2, 3, 1), "tanh", "identity", 1.0, w, b),
    ):
        with pytest.raises(ValueError):
            Mlp(*args)


def _unknown_activation(text: str) -> str:
    return text.replace("activation tanh identity 1.0", "activation sigmoid softmax 1.0")


def _infinite_weight(text: str) -> str:
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("W0 "))
    values = lines[row].split()
    lines[row] = " ".join(["W0", "inf", *values[2:]]) + "\n"
    return "".join(lines)


def _net_without_layers(text: str) -> str:
    return text + "net empty\nlayers 3\nactivation tanh identity 1.0\nend\n"


@pytest.mark.parametrize(
    "edit",
    [_unknown_activation, _infinite_weight, _net_without_layers],
    ids=["unknown-activation", "inf-weight", "no-layers"],
)
def test_checkpoint_rejects_bad_network(tmp_path, edit) -> None:
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, {"q": init_mlp([3, 4, 2], np.random.default_rng(58))})
    edited = edit(path.read_text())
    assert edited != path.read_text()
    path.write_text(edited)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _with_token(text: str, label: str, token: str) -> str:
    """``text`` with the second value of row ``label`` replaced."""
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith(label + " "))
    values = lines[row].split()
    values[2] = token
    lines[row] = " ".join(values) + "\n"
    return "".join(lines)


# Tokens that float() rejects, and tokens it reads as nan or inf, which a
# network rejects.
_BAD_TOKENS = ["1.5e", "0x1p3", "abc", "--1", "1,0", "1..0", "_1", "1__0", "1e", "nan",
               "-inf", "Infinity", "1e400"]
# Tokens float() reads as finite values.
_GOOD_TOKENS = ["1_0", "+1.5", "-0.0", "1e-320", "5e-324", ".5", "5.", "1E5", "0001.25",
                "2.4703282292062328e-324", "1.7976931348623157e308"]


@pytest.mark.parametrize("label", ["W0", "b1"])
@pytest.mark.parametrize("token", _BAD_TOKENS)
def test_checkpoint_rejects_every_bad_value_token(tmp_path, token, label) -> None:
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, {"q": init_mlp([3, 4, 2], np.random.default_rng(58))})
    path.write_text(_with_token(path.read_text(), label, token))
    with pytest.raises(CheckpointError, match="malformed checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("token", _GOOD_TOKENS)
def test_checkpoint_reads_a_value_token_as_float_does(tmp_path, token) -> None:
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, {"q": init_mlp([3, 4, 2], np.random.default_rng(58))})
    path.write_text(_with_token(path.read_text(), "W0", token))
    nets, _ = load_checkpoint(path)
    assert nets["q"].weights[0][0, 1].tobytes() == np.float64(float(token)).tobytes()


# Per-array reference updates: the loops the flat-vector updates replaced.
# The flat versions must agree with them bit for bit.


def reference_backward(net: Mlp, cache, output_grad: np.ndarray):
    """(weight grads, bias grads, input grad) computed layer by layer."""
    delta = np.asarray(output_grad, dtype=np.float64)
    d_weights, d_biases = [None] * len(net.weights), [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        if i == len(net.weights) - 1:
            if net.output_activation == "tanh":
                out = cache.outputs / net.output_scale
                delta = delta * net.output_scale * (1.0 - out**2)
        else:
            a_out = cache.inputs[i + 1]
            if net.hidden_activation == "tanh":
                delta = delta * (1.0 - a_out**2)
            else:
                delta = delta * (a_out > 0.0)
        d_weights[i] = cache.inputs[i].T @ delta
        d_biases[i] = delta.sum(axis=0)
        delta = delta @ net.weights[i].T
    return d_weights, d_biases, delta


def reference_adam(arrays, grads, ms, vs, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam with the bias corrections folded into step size and epsilon."""
    root2 = math.sqrt(1.0 - beta2**t)
    lr_t = lr * root2 / (1.0 - beta1**t)
    for p, g, m, v in zip(arrays, grads, ms, vs):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        p -= lr_t * m / (np.sqrt(v) + eps * root2)


def textbook_adam(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as first written: bias-corrected moments, then the step."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * np.square(g)
    p -= lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)


def reference_soft_update(targets, onlines, tau: float) -> None:
    for t, o in zip(targets, onlines):
        t *= 1.0 - tau
        t += tau * o


def test_backward_flags_match_per_array_reference() -> None:
    rng = np.random.default_rng(59)
    for trial in range(12):
        net = random_net(rng)
        rows = 5 if trial % 2 else 1
        x = rng.normal(size=(rows, net.input_dim))
        _, cache = forward(net, x)
        gy = rng.normal(size=(rows, net.output_dim))
        ref_w, ref_b, ref_dx = reference_backward(net, cache, gy)

        def assert_matches_reference(flat) -> None:
            assert flat.shape == net.params.shape
            d_weights, d_biases = net.split(flat)
            for got, want in zip(d_weights + d_biases, ref_w + ref_b):
                assert same_bits(got, want)

        # The parameter gradient lives in the workspace until the next
        # backward, so each one is checked before the next call.
        full_grad, full_dx = backward(net, cache, gy)
        assert_matches_reference(full_grad)
        full_grad[...] = np.nan  # the next call must rewrite every entry
        grad, no_dx = backward(net, cache, gy, input_grad=False)
        assert_matches_reference(grad)
        no_grad, dx = backward(net, cache, gy, param_grads=False)
        assert no_dx is None and no_grad is None
        assert same_bits(full_dx, ref_dx) and same_bits(dx, ref_dx)


def test_adam_step_matches_per_array_reference() -> None:
    rng = np.random.default_rng(60)
    net = init_mlp([5, 16, 16, 3], rng)
    state = adam_init(net, 3e-3)
    arrays = [a.copy() for a in net.weights + net.biases]
    ms = [np.zeros_like(a) for a in arrays]
    vs = [np.zeros_like(a) for a in arrays]
    for t in range(1, 7):
        # gradients of varied scale, with exact zeros, as training produces
        grad = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=net.params.shape)
        grad[rng.random(grad.shape) < 0.2] = 0.0
        adam_step(net, grad, state)
        d_weights, d_biases = net.split(grad)
        reference_adam(arrays, d_weights + d_biases, ms, vs, t, 3e-3)
        assert state.step == t
        for got, want in zip(net.weights + net.biases, arrays):
            assert same_bits(got, want)
        m_weights, m_biases = net.split(state.m)
        v_weights, v_biases = net.split(state.v)
        for got, want in zip(m_weights + m_biases + v_weights + v_biases, ms + vs):
            assert same_bits(got, want)
    with pytest.raises(ValueError):
        adam_step(net, np.zeros(net.params.size + 1), state)


def test_adam_step_matches_textbook_form_within_rounding() -> None:
    # Folding the bias corrections changes only rounding: every step,
    # from early (bias large) to late (bias small), lands each parameter
    # where the textbook step from the same state does, to 1e-12 relative.
    rng = np.random.default_rng(62)
    net = init_mlp([5, 16, 16, 3], rng)
    state = adam_init(net, 3e-3)
    for t in range(1, 401):
        grad = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=net.params.shape)
        grad[rng.random(grad.shape) < 0.2] = 0.0
        p, m, v = net.params.copy(), state.m.copy(), state.v.copy()
        textbook_adam(p, grad, m, v, t, 3e-3)
        adam_step(net, grad, state)
        np.testing.assert_allclose(net.params, p, rtol=1e-12, atol=0)
        assert same_bits(state.m, m) and same_bits(state.v, v)


def test_soft_update_and_hard_copy_match_per_array_reference() -> None:
    rng = np.random.default_rng(61)
    online = init_mlp([4, 8, 8, 2], rng)
    target = init_mlp([4, 8, 8, 2], rng)
    pair = paired(online, target)
    target = pair.target
    arrays = [a.copy() for a in target.weights + target.biases]
    for tau in (0.005, 0.3, 0.005, 1.0, 0.0, 0.77):
        online.params += rng.normal(scale=0.1, size=online.params.shape)
        soft_update(pair, tau)
        reference_soft_update(arrays, online.weights + online.biases, tau)
        for got, want in zip(target.weights + target.biases, arrays):
            assert same_bits(got, want)
    version = target.version
    hard_copy(pair)
    assert target.version == version + 1
    for got, want in zip(target.weights + target.biases, online.weights + online.biases):
        assert same_bits(got, want) and not np.shares_memory(got, want)


# Checkpoint property tests.

_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.1e-308, -2.2e-310, 1e308, -1e308]
_values = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def networks(draw) -> dict[str, Mlp]:
    """One to three named networks with random architectures and
    arbitrary finite parameter values."""
    names = draw(st.lists(st.sampled_from(["q", "actor", "critic", "x_1"]),
                          min_size=1, max_size=3, unique=True))
    nets = {}
    for name in names:
        sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
        net = init_mlp(
            sizes,
            np.random.default_rng(0),
            hidden_activation=draw(st.sampled_from(HIDDEN_ACTIVATIONS)),
            output_activation=draw(st.sampled_from(OUTPUT_ACTIVATIONS)),
            output_scale=draw(st.floats(min_value=5e-324, max_value=1e308)),
        )
        values = draw(st.lists(_values, min_size=net.params.size,
                               max_size=net.params.size))
        net.params[...] = values
        nets[name] = net
    return nets


def assert_same_net(got: Mlp, want: Mlp) -> None:
    assert got.layer_sizes == want.layer_sizes
    assert got.hidden_activation == want.hidden_activation
    assert got.output_activation == want.output_activation
    assert repr(got.output_scale) == repr(want.output_scale)
    assert same_bits(got.params, want.params)
    for view in got.weights + got.biases:
        assert np.shares_memory(got.params, view)


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoints")


@settings(max_examples=150, deadline=None)
@given(networks())
def test_checkpoint_round_trip_is_bitwise(checkpoint_dir, nets) -> None:
    path = checkpoint_dir / "round_trip.txt"
    meta = {"env": "pendulum", "note": "x"}
    save_checkpoint(path, nets, meta)
    loaded, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert list(loaded) == list(nets)
    for name, net in nets.items():
        assert_same_net(loaded[name], net)


@settings(max_examples=200, deadline=None)
@given(networks(), st.data())
def test_truncated_checkpoint_raises_or_loads_whole_nets(checkpoint_dir, nets, data) -> None:
    path = checkpoint_dir / "truncated.txt"
    save_checkpoint(path, nets, {"env": "pendulum"})
    text = path.read_bytes()
    header_end = text.index(b"\nnet ") + 1
    ends = [i + len(b"\nend") for i in range(len(text)) if text.startswith(b"\nend\n", i)]
    # Any byte, or one next to a net boundary, where a cut is most telling.
    near_boundary = [p + d for p in [header_end, *ends] for d in (-1, 0, 1)]
    cut = data.draw(
        st.one_of(st.integers(0, len(text)), st.sampled_from(near_boundary)), label="cut"
    )
    path.write_bytes(text[:cut])
    try:
        loaded, _ = load_checkpoint(path)
    except CheckpointError:
        return
    # Loading succeeds only at a net boundary: before the first net or
    # right after some net's "end" line (with or without its newline).
    whole = sum(end <= cut for end in ends)
    assert cut <= header_end or cut in ends or cut - 1 in ends
    assert list(loaded) == list(nets)[:whole]
    for name, net in loaded.items():
        assert_same_net(net, nets[name])


def one_row_reference(net: Mlp, rows: np.ndarray) -> np.ndarray:
    """The network's output for each row, one forward call per row."""
    return np.concatenate([forward(net, row[None])[0] for row in rows])


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 70), min_size=2, max_size=4),
    hidden=st.sampled_from(HIDDEN_ACTIVATIONS),
    output=st.sampled_from(OUTPUT_ACTIVATIONS),
    n=st.integers(1, 130),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_stacked_rows_equal_one_row_forward(sizes, hidden, output, n, seed) -> None:
    """An (n, 1, d) stack of rows gives every row the bits of a one-row
    forward, for any widths (multiples of 8 or not) and batch size."""
    rng = np.random.default_rng(seed)
    net = init_mlp(sizes, rng, hidden_activation=hidden, output_activation=output,
                   output_scale=2.0)
    rows = rng.normal(scale=3.0, size=(n, sizes[0]))
    stacked, _ = forward(net, rows[:, None, :])
    assert stacked.shape == (n, 1, sizes[-1])
    assert same_bits(stacked[:, 0], one_row_reference(net, rows))


# The paired online/target pass: forward_pair against two plain forwards.

PAIR_NETS = {
    "4-64-64-2": ((4, 64, 64, 2), "tanh", "identity"),
    "2-64-64-3": ((2, 64, 64, 3), "tanh", "identity"),
    "4-400-300-2": ((4, 400, 300, 2), "tanh", "identity"),
    "4-2": ((4, 2), "tanh", "identity"),
    "6-32-3-relu-tanh": ((6, 32, 3), "relu", "tanh"),
}


def make_pair(name: str, seed: int) -> NetworkPair:
    """A pair whose target no longer equals its online network."""
    sizes, hidden, output = PAIR_NETS[name]
    rng = np.random.default_rng(seed)
    pair = NetworkPair(init_mlp(sizes, rng, hidden_activation=hidden,
                                output_activation=output, output_scale=2.0))
    pair.target.params += rng.normal(scale=0.05, size=pair.target.params.shape)
    return pair


def pair_pass(pair: NetworkPair, x_online: np.ndarray, x_target: np.ndarray):
    """``forward_pair`` on the two inputs, written first into the halves
    of the online network's input block."""
    rows = len(x_online)
    x = pair.online.workspace(rows).x
    x[0], x[1] = x_online, x_target
    return forward_pair(pair, rows)


@pytest.mark.parametrize("rows", [1, 2, 16, 31, 32, 33, 64, 128])
@pytest.mark.parametrize("name", sorted(PAIR_NETS))
def test_forward_pair_matches_two_plain_forwards(name, rows) -> None:
    pair = make_pair(name, rows)
    rng = np.random.default_rng(1000 + rows)
    x_online = rng.normal(size=(rows, pair.online.input_dim))
    x_target = rng.normal(size=(rows, pair.online.input_dim))
    gy = rng.normal(size=(rows, pair.online.output_dim))
    y_online, y_target, cache = pair_pass(pair, x_online, x_target)
    grad, dx = backward(pair.online, cache, gy)
    grad = grad.copy()
    cache_inputs = [a.copy() for a in cache.inputs]
    want_online, plain = forward(pair.online, x_online)
    want_target, _ = forward(pair.target, x_target)
    assert same_bits(y_online, want_online) and same_bits(y_target, want_target)
    assert same_bits(cache.outputs, plain.outputs)
    assert len(cache_inputs) == len(plain.inputs)
    assert all(same_bits(a, b) for a, b in zip(cache_inputs, plain.inputs))
    want_grad, want_dx = backward(pair.online, plain, gy)
    assert same_bits(grad, want_grad) and same_bits(dx, want_dx)
    # The plain forwards left the input block alone: a second pass over
    # it gives the same bits in fresh outputs.
    again_online, again_target, _ = forward_pair(pair, rows)
    assert same_bits(again_online, y_online) and same_bits(again_target, y_target)
    assert not np.shares_memory(again_online, y_online)


def test_forward_pair_cache_goes_stale() -> None:
    pair = make_pair("4-64-64-2", 3)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 4))
    gy = np.ones((8, 2))
    _, _, cache = pair_pass(pair, x, x)
    forward(pair.online, rng.normal(size=(8, 4)))  # same row count
    with pytest.raises(IntegrityError, match="later forward"):
        backward(pair.online, cache, gy)
    _, _, first = pair_pass(pair, x, x)
    _, _, second = forward_pair(pair, 8)
    with pytest.raises(IntegrityError, match="later forward"):
        backward(pair.online, first, gy)
    forward(pair.online, rng.normal(size=(4, 4)))  # another row count
    grad, _ = backward(pair.online, second, gy, input_grad=False)
    adam_step(pair.online, grad, adam_init(pair.online, 1e-3))
    with pytest.raises(IntegrityError, match="current parameters"):
        backward(pair.online, second, gy)


def test_backward_rejects_another_networks_cache() -> None:
    # The pair's target and a fresh network of the same sizes are at
    # version 0 like the online network, and each has a workspace for
    # the same row count.
    pair = make_pair("4-64-64-2", 8)
    stranger = init_mlp(pair.online.layer_sizes, np.random.default_rng(8),
                        hidden_activation="tanh")
    rng = np.random.default_rng(8)
    x, gy = rng.normal(size=(8, 4)), np.ones((8, 2))
    forward(pair.online, x)
    for other in (pair.target, stranger):
        assert other.version == pair.online.version == 0
        _, cache = forward(other, x)
        with pytest.raises(IntegrityError, match="another network"):
            backward(pair.online, cache, gy)
        backward(other, cache, gy)
    _, _, online_cache = pair_pass(pair, x, x)
    for other in (pair.target, stranger):
        with pytest.raises(IntegrityError, match="another network"):
            backward(other, online_cache, gy)
    backward(pair.online, online_cache, gy)


def test_pair_networks_are_row_views() -> None:
    pair = make_pair("2-64-64-3", 4)
    for row, net in enumerate((pair.online, pair.target)):
        assert net.params.base is pair.params
        assert same_bits(net.params, pair.params[row])
        for view in net.weights + net.biases:
            assert np.shares_memory(view, pair.params[row])
        for layer, (w, b) in enumerate(zip(pair.weights, pair.biases)):
            assert same_bits(w[row], net.weights[layer])
            assert same_bits(b[row, 0], net.biases[layer])
    for view in pair.weights + pair.biases:
        assert np.shares_memory(view, pair.params)


def test_adam_step_on_online_leaves_target_row() -> None:
    pair = make_pair("4-64-64-2", 5)
    target = pair.target.params.copy()
    state = adam_init(pair.online, 1e-2)
    rng = np.random.default_rng(5)
    for _ in range(3):
        adam_step(pair.online, rng.normal(size=pair.online.params.shape), state)
    assert same_bits(pair.params[1], target) and same_bits(pair.target.params, target)
    assert not same_bits(pair.params[0], target)


def test_hard_copy_and_soft_update_on_pair_match_per_array_reference() -> None:
    pair = make_pair("2-64-64-3", 6)
    rng = np.random.default_rng(6)
    arrays = [a.copy() for a in pair.target.weights + pair.target.biases]
    for tau in (0.005, 0.3, 1.0, 0.0, 0.77):
        pair.online.params += rng.normal(scale=0.1, size=pair.online.params.shape)
        soft_update(pair, tau)
        reference_soft_update(arrays, pair.online.weights + pair.online.biases, tau)
        for got, want in zip(pair.target.weights + pair.target.biases, arrays):
            assert same_bits(got, want)
    hard_copy(pair)
    assert same_bits(pair.params[1], pair.params[0])
    x = rng.normal(size=(5, 2))
    y_online, y_target, _ = pair_pass(pair, x, x)
    assert same_bits(y_online, y_target)


def test_deep_copies_of_a_pair_share_no_memory() -> None:
    pair = make_pair("4-64-64-2", 7)
    online = copy.deepcopy(pair.online)
    assert same_bits(online.params, pair.online.params)
    for array in [online.params] + online.weights + online.biases:
        assert not np.shares_memory(array, pair.params)
    twin = copy.deepcopy(pair)
    assert not np.shares_memory(twin.params, pair.params)
    assert twin.online.params.base is twin.params and twin.target.params.base is twin.params
    x = np.random.default_rng(7).normal(size=(3, 4))
    for got, want in zip(pair_pass(twin, x, x)[:2], pair_pass(pair, x, x)[:2]):
        assert same_bits(got, want)
    twin.online.params[...] = 0.0
    assert not np.any(pair.online.params == 0.0)


def agent_product_shapes() -> set[tuple[str, tuple[int, int], tuple[int, int]]]:
    """(kind, left shape, right shape) of every 2-D product that a
    forward or backward of an agent's network makes, at one row (``act``)
    and at the agent's default batch size, with and without a goal.
    Backward's left operand of the weight gradient and right operand of
    the input gradient are transposed views."""
    shapes = set()
    for env in env_names():
        spec = env_spec(env)
        for kind, cls in AGENTS.items():
            if not isinstance(spec.actions, cls.ACTIONS):
                continue
            config = getattr(RunConfig(), kind)
            for with_goal in (False, True):
                agent = cls(spec.actions, config, scaler_for(spec, with_goal),
                            np.random.default_rng(0))
                for net in agent.networks().values():
                    layers = zip(net.layer_sizes[:-1], net.layer_sizes[1:])
                    for (fan_in, fan_out), n in itertools.product(layers, (1, config.batch_size)):
                        shapes.add(("forward", (n, fan_in), (fan_in, fan_out)))
                        shapes.add(("weight-grad", (fan_in, n), (n, fan_out)))
                        shapes.add(("input-grad", (n, fan_out), (fan_out, fan_in)))
    return shapes


def test_dot_equals_matmul_on_every_agent_product() -> None:
    # nn sends 2-D products through np.dot and stacks through
    # np.matmul, and forward_pair's stacked slices must give the bits of
    # a matrix forward. A failure here means this numpy or BLAS build
    # rounds the two differently; see the BLAS caveat in test_golden.py.
    shapes = agent_product_shapes()
    rows = {left[0] for kind, left, _ in shapes if kind == "forward"}
    assert rows == {1, 32, 64}
    assert ("input-grad", (64, 1), (1, 64)) in shapes  # the K=1 outer product
    rng = np.random.default_rng(19)
    for kind, left, right in sorted(shapes):
        for _ in range(10):
            # Backward's transposed operands are views, as there.
            a = rng.normal(size=left[::-1]).T if kind == "weight-grad" else rng.normal(size=left)
            b = rng.normal(size=right[::-1]).T if kind == "input-grad" else rng.normal(size=right)
            a[rng.random(a.shape) < 0.3] = 0.0  # relu zeros
            want = np.matmul(a, b)
            out = np.empty_like(want)
            np.dot(a, b, out=out)
            assert same_bits(np.dot(a, b), want), (kind, left, right)
            assert same_bits(out, want), (kind, left, right)
