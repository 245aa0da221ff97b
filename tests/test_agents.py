from __future__ import annotations

import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from replaykit import agents, nn
from replaykit.agents import (
    DdpgAgent,
    DdpgConfig,
    DqnAgent,
    DqnConfig,
    ObservationScaler,
    OUNoise,
    greedy_policy,
    max_over_actions,
    scaler_for,
)
from replaykit.envs import BoxAction, DiscreteActions, env_spec
from replaykit.errors import ConfigurationError, NumericalError
from replaykit.nn import Mlp, adam_step, backward, forward, hard_copy
from replaykit.replay import Batch, ReplayBuffer


def identity_scaler(dim: int) -> ObservationScaler:
    return ObservationScaler(np.zeros(dim), np.ones(dim))


def offset_scaler(dim: int) -> ObservationScaler:
    """A scaler far from the identity, so that scaling a state twice, or
    not at all, changes its bits."""
    return ObservationScaler(np.linspace(-0.7, 1.3, dim), np.linspace(0.4, 3.1, dim))


def make_dqn(obs_dim=3, n_actions=2, rng_seed=0, scaler=identity_scaler, **config) -> DqnAgent:
    cfg = DqnConfig(**config)
    return DqnAgent(DiscreteActions(n_actions), cfg, scaler(obs_dim),
                    np.random.default_rng(rng_seed))


def make_ddpg(obs_dim=3, action_dim=1, rng_seed=0, **config) -> DdpgAgent:
    cfg = DdpgConfig(**config)
    return DdpgAgent(BoxAction(action_dim, -2.0, 2.0), cfg, identity_scaler(obs_dim),
                     np.random.default_rng(rng_seed))


def make_batch(rows, weights=None) -> Batch:
    """Store (state, action, reward, next_state, done) rows in a fresh
    buffer and gather them back in order."""
    buffer = ReplayBuffer(len(rows))
    for row in rows:
        buffer.append(*row)
    return buffer.gather(np.arange(len(rows)), weights)


def random_rows(n, obs_dim=3, discrete=True, rng_seed=1, done_rate=0.2, n_actions=2):
    rng = np.random.default_rng(rng_seed)
    out = []
    for _ in range(n):
        action = int(rng.integers(n_actions)) if discrete else rng.uniform(-2.0, 2.0, size=1)
        state = rng.normal(size=obs_dim)
        reward = float(rng.normal())
        next_state = rng.normal(size=obs_dim)
        out.append((state, action, reward, next_state, bool(rng.random() < done_rate)))
    return out


def epsilon_at(agent: DqnAgent, acts: int) -> float:
    agent.acts = acts
    return agent.epsilon


def test_dqn_epsilon_linear_and_clamped() -> None:
    agent = make_dqn(epsilon_start=1.0, epsilon_end=0.05, epsilon_decay_steps=100)
    assert epsilon_at(agent, 0) == 1.0
    assert epsilon_at(agent, 50) == pytest.approx(0.525)
    assert epsilon_at(agent, 100) == pytest.approx(0.05)
    assert epsilon_at(agent, 10_000) == pytest.approx(0.05)
    agent = make_dqn(epsilon_start=1.0, epsilon_end=0.05, epsilon_decay_steps=500)
    values = [epsilon_at(agent, s) for s in range(0, 2000, 7)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_observation_scaler() -> None:
    scaler = ObservationScaler([1.0, -1.0], [2.0, 4.0])
    assert scaler(np.array([3.0, -5.0])) == pytest.approx([1.0, -1.0])
    batch = scaler(np.array([[3.0, -5.0], [1.0, -1.0]]))
    assert batch[1] == pytest.approx([0.0, 0.0])
    with pytest.raises(ConfigurationError):
        ObservationScaler([0.0], [0.0])


def test_scaler_for_env_and_goal() -> None:
    scaler = scaler_for(env_spec("mountaincar"))
    assert scaler.dim == 2
    scaler = scaler_for(env_spec("mountaincar"), with_goal=True)
    assert scaler.dim == 3
    scaled = scaler(np.array([-0.3, 0.0, 0.6]))
    assert scaled[0] == pytest.approx(0.0)
    assert scaled[2] == pytest.approx(1.0)


def test_dqn_act_greedy_and_tie_break() -> None:
    agent = make_dqn(epsilon_start=0.0, epsilon_end=0.0)
    # zero the network: all Q equal, argmax must pick action 0
    for w in agent.q.weights:
        w[...] = 0.0
    for b in agent.q.biases:
        b[...] = 0.0
    rng = np.random.default_rng(2)
    assert agent.act(np.zeros(3), rng) == 0
    # bias action 1 upward: greedy picks it
    agent.q.biases[-1][1] = 1.0
    assert agent.act(np.ones(3), rng) == 1


def test_dqn_act_epsilon_one_is_uniform() -> None:
    agent = make_dqn(n_actions=3, epsilon_start=1.0, epsilon_end=1.0)
    rng = np.random.default_rng(3)
    counts = np.zeros(3)
    for _ in range(30_000):
        counts[agent.act(np.zeros(3), rng)] += 1
    assert stats.chisquare(counts).pvalue > 0.01


def test_dqn_epsilon_follows_its_own_act_count() -> None:
    agent = make_dqn(epsilon_start=1.0, epsilon_end=0.0, epsilon_decay_steps=4)
    rng = np.random.default_rng(4)
    seen = []
    for step in range(6):
        if step == 2:
            agent.begin_episode()  # episodes do not reset the clock
        seen.append(agent.epsilon)
        agent.act(np.zeros(3), rng)
    assert seen == pytest.approx([1.0, 0.75, 0.5, 0.25, 0.0, 0.0])
    assert agent.acts == 6


def reference_td_errors(agent: DqnAgent, batch: Batch) -> np.ndarray:
    """Q(s, a) - (r + gamma * (1 - d) * max_a' Q_target(s', a')), with one
    plain forward each through agent.q and agent.q_target."""
    q, _ = forward(agent.q, agent.scaler(batch.states))
    next_q, _ = forward(agent.q_target, agent.scaler(batch.next_states))
    targets = batch.rewards + agent.config.gamma * (1.0 - batch.dones) * next_q.max(axis=1)
    return q[np.arange(len(batch)), batch.actions.astype(int)] - targets


def constant_outputs(net: Mlp, values) -> None:
    net.params[...] = 0.0
    net.biases[-1][...] = values


def test_dqn_td_targets() -> None:
    agent = make_dqn(gamma=0.99)
    # both nets output fixed values via their biases
    constant_outputs(agent.q, [0.5, -1.5])
    constant_outputs(agent.q_target, [10.0, 4.0])
    batch = make_batch([
        (np.zeros(3), 0, 1.0, np.zeros(3), False),
        (np.zeros(3), 1, 2.0, np.zeros(3), True),
        (np.zeros(3), 1, 3.0, np.zeros(3), False),
    ])
    expected = reference_td_errors(agent, batch)
    td = agent.update(batch)
    assert td.tobytes() == expected.tobytes()
    assert td == pytest.approx([0.5 - (1.0 + 0.99 * 10.0), -1.5 - 2.0, -1.5 - (3.0 + 0.99 * 10.0)])


def test_dqn_td_targets_gamma_zero() -> None:
    agent = make_dqn(gamma=0.0)
    batch = make_batch([(np.ones(3), 0, 5.0, np.ones(3), False),
                        (np.zeros(3), 1, -1.0, np.ones(3), False)])
    q, _ = forward(agent.q, batch.states)
    expected = reference_td_errors(agent, batch)
    td = agent.update(batch)
    assert td.tobytes() == expected.tobytes()
    assert td.tobytes() == (q[[0, 1], [0, 1]] - [5.0, -1.0]).tobytes()


@pytest.mark.parametrize("hidden_sizes", [(), (8,), (64, 64)])
@pytest.mark.parametrize("batch_size", [1, 32, 33])
def test_dqn_update_matches_plain_forward_reference(batch_size, hidden_sizes) -> None:
    # A twin agent takes each step through plain forward calls on its
    # own q and q_target, scaling states and next states apart; both
    # must agree bit for bit in TD errors and parameters, across target
    # syncs. Under the offset scaler, an update that scales a half of
    # the batch's state block twice, or not at all, fails.
    for scaler, n_actions in ((identity_scaler, 2), (offset_scaler, 3)):
        config = dict(obs_dim=4, n_actions=n_actions, scaler=scaler, gamma=0.9,
                      hidden_sizes=hidden_sizes, target_update_period=2)
        agent, twin = make_dqn(**config), make_dqn(**config)
        rng = np.random.default_rng(batch_size)
        for step in range(5):
            rows = random_rows(batch_size, obs_dim=4, rng_seed=step, n_actions=n_actions)
            batch = make_batch(rows, rng.uniform(0.1, 1.0, size=batch_size))
            td_ref = reference_td_errors(twin, batch)
            q, cache = forward(twin.q, twin.scaler(batch.states))
            output_grad = np.zeros_like(q)
            loss_grad = 2.0 * batch.weights
            loss_grad *= td_ref
            loss_grad /= batch_size
            output_grad[np.arange(batch_size), batch.actions.astype(int)] = loss_grad
            grad, _ = backward(twin.q, cache, output_grad, input_grad=False)
            adam_step(twin.q, grad, twin.adam)
            if step % 2 == 1:
                hard_copy(twin.pair)
            td = agent.update(batch)
            assert td.tobytes() == td_ref.tobytes()
            assert agent.q.params.tobytes() == twin.q.params.tobytes()
            assert agent.q_target.params.tobytes() == twin.q_target.params.tobytes()


def test_dqn_update_returns_pre_update_td_errors() -> None:
    agent = make_dqn()
    batch = make_batch(random_rows(8))
    frozen_q = copy.deepcopy(agent.q)
    frozen_target = copy.deepcopy(agent.q_target)
    td = agent.update(batch)
    next_q, _ = forward(frozen_target, batch.next_states)
    y = batch.rewards + agent.config.gamma * (1.0 - batch.dones) * next_q.max(axis=1)
    q, _ = forward(frozen_q, batch.states)
    expected = q[np.arange(8), batch.actions.astype(int)] - y
    assert td == pytest.approx(expected)


def test_dqn_update_zero_td_error_leaves_params_fixed() -> None:
    # with gamma 0 and rewards equal to the current Q(s, a) values the
    # TD errors vanish, so the update must not move any parameter
    agent = make_dqn(gamma=0.0)
    rows = random_rows(6)
    q, _ = forward(agent.q, np.array([row[0] for row in rows]))
    matched = [
        (state, action, float(q[i, action]), next_state, done)
        for i, (state, action, _, next_state, done) in enumerate(rows)
    ]
    before = [w.copy() for w in agent.q.weights]
    td = agent.update(make_batch(matched))
    assert np.abs(td).max() < 1e-12
    for b, a in zip(before, agent.q.weights):
        assert np.array_equal(b, a)


def test_dqn_update_zero_weights_leave_params_fixed() -> None:
    agent = make_dqn()
    batch = make_batch(random_rows(5), weights=np.zeros(5))
    before = [w.copy() for w in agent.q.weights]
    agent.update(batch)
    for b, a in zip(before, agent.q.weights):
        assert np.array_equal(b, a)


def test_dqn_weighted_loss_gradient_single_sample() -> None:
    """One transition with weight w: dLoss/dQ(s, a) must equal
    2 * w * delta, verified through the parameter update direction."""
    agent = make_dqn(gamma=0.0, learning_rate=1e-3)
    batch = make_batch([(np.ones(3), 1, 10.0, np.zeros(3), True)], np.array([0.5]))
    q_before, _ = forward(agent.q, np.ones(3)[None, :])
    delta = float(q_before[0, 1] - 10.0)
    td = agent.update(batch)
    assert td[0] == pytest.approx(delta)


def test_dqn_target_sync_period() -> None:
    agent = make_dqn(target_update_period=3, warmup=1)
    batch = make_batch(random_rows(4))
    snapshots = []
    for step in range(1, 7):
        agent.update(batch)
        snapshots.append([b.copy() for b in agent.q_target.biases])
    # target changed only after updates 3 and 6
    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    assert same(snapshots[0], snapshots[1])
    assert not same(snapshots[1], snapshots[2])
    assert same(snapshots[3], snapshots[4])
    assert not same(snapshots[4], snapshots[5])


def test_dqn_divergence_guard() -> None:
    agent = make_dqn(gamma=0.0)
    batch = make_batch([(np.ones(3), 0, 1e9, np.zeros(3), True)])
    with pytest.raises(NumericalError):
        agent.update(batch)


def test_ou_noise_zero_sigma_stays_at_mu() -> None:
    noise = OUNoise(2, theta=1.0, sigma=0.0, mu=0.0)
    rng = np.random.default_rng(4)
    for _ in range(10):
        assert noise.sample(rng) == pytest.approx([0.0, 0.0])
    noise = OUNoise(1, theta=0.5, sigma=0.0, mu=3.0)
    noise.state[0] = 1.0
    noise.sample(rng)
    assert noise.state[0] == pytest.approx(2.0)  # 1 + 0.5 * (3 - 1)


def test_ou_noise_raises_when_its_state_overflows() -> None:
    noise = OUNoise(1, theta=0.15, sigma=1e308)
    rng = np.random.default_rng(8)
    with pytest.raises(NumericalError, match="OU noise state"), np.errstate(over="ignore"):
        for _ in range(100):
            assert np.isfinite(noise.sample(rng)).all()


@pytest.mark.parametrize("theta", [2.0, 3.0, 1e308, -0.5, math.nan])
def test_ddpg_config_rejects_unstable_ou_theta(theta) -> None:
    with pytest.raises(ConfigurationError, match=r"ou_theta in \(0, 2\)"):
        DdpgConfig(ou_theta=theta)
    DdpgConfig(ou_theta=1.999)


def test_ou_noise_reset() -> None:
    noise = OUNoise(1, theta=0.15, sigma=0.2)
    rng = np.random.default_rng(5)
    noise.sample(rng)
    noise.reset()
    assert noise.state == pytest.approx([0.0])


def test_ou_noise_stationary_std() -> None:
    theta, sigma = 0.15, 0.2
    noise = OUNoise(1, theta=theta, sigma=sigma)
    rng = np.random.default_rng(6)
    n = 200_000
    burn = 1_000
    samples = np.empty(n)
    for i in range(burn):
        noise.sample(rng)
    for i in range(n):
        samples[i] = noise.sample(rng)[0]
    expected = OUNoise.stationary_std(theta, sigma)
    assert samples.std() == pytest.approx(expected, rel=0.1)


def test_ddpg_action_clipped_to_bounds() -> None:
    # an OU state far outside the bounds forces clipping
    rng = np.random.default_rng(7)
    for mu, bound in ((5.0, 2.0), (-5.0, -2.0)):
        agent = make_ddpg(ou_theta=1.0, ou_sigma=0.0, ou_mu=mu)
        assert agent.act(np.zeros(3), rng) == pytest.approx([bound])


def test_in_place_clip_gives_np_clip_bits() -> None:
    # DdpgAgent.act and greedy_policy clip with np.maximum then
    # np.minimum in place; on finite values that is np.clip's result.
    low, high = -2.0, 2.0
    edges = [low, high, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
    edges += [np.nextafter(b, d) for b in (low, high) for d in (-np.inf, np.inf)]
    values = np.concatenate((edges, np.random.default_rng(23).normal(scale=3.0, size=500)))
    clipped = values.copy()
    np.maximum(clipped, low, out=clipped)
    np.minimum(clipped, high, out=clipped)
    assert clipped.tobytes() == np.clip(values, low, high).tobytes()


def test_ddpg_act_is_np_clip_of_actor_plus_noise() -> None:
    # A wide noise pushes most actions past the bounds.
    agent = make_ddpg(ou_sigma=3.0)
    twin = copy.deepcopy(agent)
    rng, twin_rng = np.random.default_rng(29), np.random.default_rng(29)
    for obs in np.random.default_rng(31).normal(size=(200, 3)):
        out, _ = forward(twin.actor, twin.scaler(obs)[None])
        want = np.clip(out[0] + twin.noise.sample(twin_rng), -2.0, 2.0)
        assert agent.act(obs, rng).tobytes() == want.tobytes()


def test_ddpg_begin_episode_resets_its_noise() -> None:
    agent = make_ddpg(ou_mu=0.5)
    rng = np.random.default_rng(9)
    for _ in range(5):
        agent.act(np.zeros(3), rng)
    assert agent.noise.state != pytest.approx([0.5])
    agent.begin_episode()
    assert agent.noise.state == pytest.approx([0.5])


def test_ddpg_greedy_within_bounds() -> None:
    agent = make_ddpg()
    rng = np.random.default_rng(8)
    for _ in range(20):
        action, _ = forward(agent.actor, agent.scaler(rng.normal(size=3))[None])
        assert -2.0 <= action[0, 0] <= 2.0


def fill_critic_inputs(agent: DdpgAgent, batch: Batch) -> None:
    """Write the critic's scaled (s, a) and (s', actor_target(s')) rows
    of ``batch``, made through plain forwards, into the halves of the
    critic's input block, where ``critic_update`` reads them."""
    states, next_states = agent.scaler(batch.states), agent.scaler(batch.next_states)
    next_actions, _ = forward(agent.actor_target, next_states)
    x = agent.critic.workspace(len(batch)).x
    x[0], x[1] = np.hstack([states, batch.actions]), np.hstack([next_states, next_actions])


def actor_step(agent: DdpgAgent, scaled: np.ndarray) -> None:
    """One actor update over already scaled states, through a plain
    forward of the actor."""
    actions, cache = forward(agent.actor, scaled)
    agent.actor_update(np.hstack([scaled, actions]), actions, cache)


def test_ddpg_critic_target_hand_check() -> None:
    """r = 0.5, gamma = 0.9, target critic pinned at 1.0 -> y = 1.4."""
    agent = make_ddpg(gamma=0.9)
    for w in agent.critic_target.weights:
        w[...] = 0.0
    for b in agent.critic_target.biases:
        b[...] = 0.0
    agent.critic_target.biases[-1][0] = 1.0
    batch = make_batch([(np.zeros(3), np.array([0.3]), 0.5, np.zeros(3), False)])
    q, _ = forward(agent.critic, np.concatenate([np.zeros(3), np.array([0.3])])[None, :])
    fill_critic_inputs(agent, batch)
    td = agent.critic_update(batch)
    assert td[0] == pytest.approx(float(q[0, 0]) - 1.4)


def test_ddpg_critic_terminal_ignores_bootstrap() -> None:
    agent = make_ddpg(gamma=0.9)
    batch = make_batch([(np.zeros(3), np.array([0.0]), 2.0, np.zeros(3), True)])
    q, _ = forward(agent.critic, np.zeros(4)[None, :])
    fill_critic_inputs(agent, batch)
    td = agent.critic_update(batch)
    assert td[0] == pytest.approx(float(q[0, 0]) - 2.0)


def test_ddpg_actor_gradient_matches_finite_differences() -> None:
    """The chained actor gradient equals d/d theta of
    -mean_i Q(s_i, actor(s_i)) by central differences."""
    agent = make_ddpg(rng_seed=11)
    rng = np.random.default_rng(12)
    states = rng.normal(size=(4, 3))

    def objective() -> float:
        actions, _ = forward(agent.actor, states)
        q, _ = forward(agent.critic, np.concatenate([states, actions], axis=1))
        return float(-np.mean(q))

    actions, actor_cache = forward(agent.actor, states)
    q, critic_cache = forward(agent.critic, np.concatenate([states, actions], axis=1))
    from replaykit.nn import backward

    _, d_input = backward(agent.critic, critic_cache, np.full((4, 1), -0.25))
    analytic, _ = backward(agent.actor, actor_cache, d_input[:, -1:])

    h = 1e-6
    for p, a in zip(agent.actor.weights + agent.actor.biases,
                    sum(agent.actor.split(analytic), [])):
        it = np.nditer(p, flags=["multi_index"])
        checked = 0
        while not it.finished and checked < 8:
            idx = it.multi_index
            original = p[idx]
            p[idx] = original + h
            plus = objective()
            p[idx] = original - h
            minus = objective()
            p[idx] = original
            numeric = (plus - minus) / (2.0 * h)
            assert a[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-8)
            checked += 1
            it.iternext()


def test_ddpg_actor_update_increases_critic_value() -> None:
    # critic Q(s, a) = a: ascending it must raise the mean action
    agent = make_ddpg(actor_lr=1e-2)
    agent.critic.weights[:] = []  # replaced below
    agent.critic = Mlp(
        (4, 1), "tanh", "identity", 1.0,
        [np.array([[0.0], [0.0], [0.0], [1.0]])], [np.zeros(1)],
    )
    rng = np.random.default_rng(13)
    states = rng.normal(size=(16, 3))
    before = float(np.mean(forward(agent.actor, states)[0]))
    for _ in range(5):
        actor_step(agent, agent.scaler(states))
    after = float(np.mean(forward(agent.actor, states)[0]))
    assert after > before


def test_ddpg_actor_update_zero_critic_is_noop() -> None:
    agent = make_ddpg()
    for w in agent.critic.weights:
        w[...] = 0.0
    for b in agent.critic.biases:
        b[...] = 0.0
    batch = make_batch(random_rows(4, discrete=False))
    before = [w.copy() for w in agent.actor.weights]
    actor_step(agent, agent.scaler(batch.states))
    for b_, a in zip(before, agent.actor.weights):
        assert np.array_equal(b_, a)


def test_ddpg_soft_sync_small_tau_small_move() -> None:
    agent = make_ddpg(tau=0.001)
    target_before = [w.copy() for w in agent.critic_target.weights]
    agent.sync_targets()
    for before, after, online in zip(
        target_before, agent.critic_target.weights, agent.critic.weights
    ):
        assert np.allclose(after, 0.999 * before + 0.001 * online)


def test_ddpg_update_runs_full_cycle() -> None:
    agent = make_ddpg()
    batch = make_batch(random_rows(8, discrete=False, done_rate=0.1))
    td = agent.update(batch)
    assert td.shape == (8,)
    assert np.all(np.isfinite(td))


def test_ddpg_rejects_asymmetric_bounds() -> None:
    with pytest.raises(ConfigurationError):
        DdpgAgent(BoxAction(1, -1.0, 2.0), DdpgConfig(), identity_scaler(3),
                  np.random.default_rng(0))


def test_agent_config_validation() -> None:
    # One fault at a time, each with the exact text it raises.
    epsilons = "need 0 <= epsilon_end <= epsilon_start <= 1, got"
    ou = "need ou_theta in (0, 2), finite ou_sigma >= 0 and finite ou_mu; got"
    cases = [
        (DqnConfig, {"gamma": 1.5}, "gamma must be in [0, 1], got 1.5"),
        (DqnConfig, {"epsilon_start": 0.1, "epsilon_end": 0.5}, f"{epsilons} 0.5, 0.1"),
        (DqnConfig, {"epsilon_start": 1.5, "epsilon_end": 1.5}, f"{epsilons} 1.5, 1.5"),
        (DqnConfig, {"epsilon_decay_steps": 0}, "epsilon_decay_steps must be >= 1"),
        (DqnConfig, {"target_update_period": 0}, "target_update_period must be >= 1"),
        (DqnConfig, {"batch_size": 0}, "batch_size and warmup must be >= 1"),
        (DqnConfig, {"learning_rate": 0.0}, "learning_rate must be finite and > 0, got 0.0"),
        (DqnConfig, {"hidden_sizes": (64, 0)}, "hidden_sizes must all be >= 1, got (64, 0)"),
        (DdpgConfig, {"gamma": -0.1}, "gamma must be in [0, 1], got -0.1"),
        (DdpgConfig, {"tau": 0.0}, "tau must be in (0, 1], got 0.0"),
        (DdpgConfig, {"warmup": 0}, "batch_size and warmup must be >= 1"),
        (DdpgConfig, {"ou_theta": 0.0}, f"{ou} (0.0, 0.2, 0.0)"),
        (DdpgConfig, {"actor_lr": math.inf}, "actor_lr must be finite and > 0, got inf"),
        (DdpgConfig, {"critic_lr": math.nan}, "critic_lr must be finite and > 0, got nan"),
        (DdpgConfig, {"hidden_sizes": (0,)}, "hidden_sizes must all be >= 1, got (0,)"),
    ]
    for config, fields, message in cases:
        with pytest.raises(ConfigurationError) as info:
            config(**fields)
        assert str(info.value) == message, fields


def overflow_outputs(net: Mlp) -> None:
    """Make every output of a tanh-hidden, identity-output network
    overflow to inf: saturated hidden units weighed by 1e308."""
    net.params[...] = 0.0
    for b in net.biases[:-1]:
        b[...] = 1.0
    net.weights[-1][...] = 1e308


def test_non_finite_network_output_raises_on_every_path() -> None:
    # A matrix forward, a one-row forward (act), a stack of rows (the
    # eval policy) and both updates. Only the online networks overflow,
    # so each error comes from the output check of forward, not from
    # the targets or the TD errors.
    dqn = make_dqn(epsilon_start=0.0, epsilon_end=0.0)
    overflow_outputs(dqn.q)
    ddpg = make_ddpg()
    overflow_outputs(ddpg.critic)
    policy = greedy_policy(dqn.q, dqn.scaler, None, DiscreteActions(2))
    calls = [
        lambda: forward(dqn.q, np.zeros((4, 3))),
        lambda: dqn.act(np.zeros(3), np.random.default_rng(0)),
        lambda: policy(np.zeros((4, 3))),
        lambda: dqn.update(make_batch(random_rows(8))),
        lambda: ddpg.update(make_batch(random_rows(8, discrete=False))),
    ]
    for call in calls:
        with pytest.raises(NumericalError, match="non-finite output"), np.errstate(over="ignore"):
            call()


def test_act_and_greedy_policy_each_make_one_forward_call(monkeypatch) -> None:
    # perfbench sorts its timed chunks by their count of nn.forward calls
    # through every binding of it, so act and evaluation must run their
    # network passes through agents' binding of nn.forward, once a call.
    assert agents.forward is nn.forward
    calls = []

    def counted(net, x):
        calls.append(net)
        return nn.forward(net, x)

    monkeypatch.setattr(agents, "forward", counted)
    dqn = make_dqn(epsilon_start=0.0, epsilon_end=0.0)
    ddpg = make_ddpg()
    rng = np.random.default_rng(15)
    dqn_policy = greedy_policy(dqn.q, dqn.scaler, None, DiscreteActions(2))
    ddpg_policy = greedy_policy(ddpg.actor, ddpg.scaler, None, ddpg.actions)
    for call, net in [
        (lambda: dqn_policy(rng.normal(size=(7, 3))), dqn.q),
        (lambda: ddpg_policy(rng.normal(size=(7, 3))), ddpg.actor),
        (lambda: ddpg.act(rng.normal(size=3), rng), ddpg.actor),
        (lambda: dqn.act(rng.normal(size=3), rng), dqn.q),
    ]:
        calls.clear()
        call()
        assert len(calls) == 1 and calls[0] is net


def traced_peak_bytes(update, batch: Batch) -> int:
    """Peak traced memory over 10 updates after 3 warm-up ones."""
    for _ in range(3):
        update(batch)
    tracemalloc.start()
    try:
        for _ in range(10):
            update(batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_learner_updates_allocate_less_than_their_parameters() -> None:
    # CartPole DQN (4-64-64-2, batch 32) and Pendulum DDPG (3-64-64-1
    # actor, 4-64-64-1 critic, batch 64): a steady-state update reuses
    # its networks' workspaces, so its temporaries stay well below one
    # copy of the parameters.
    dqn = make_dqn(obs_dim=4)
    dqn_peak = traced_peak_bytes(dqn.update, make_batch(random_rows(32, obs_dim=4)))
    assert dqn_peak < dqn.q.params.nbytes
    ddpg = make_ddpg()
    ddpg_peak = traced_peak_bytes(ddpg.update, make_batch(random_rows(64, discrete=False)))
    assert ddpg_peak < ddpg.actor.params.nbytes + ddpg.critic.params.nbytes


def test_continuous_greedy_policy_clips_like_np_clip() -> None:
    # Actor outputs scaled to +-3 overshoot the +-2 bounds both ways.
    agent = make_ddpg()
    agent.actor.output_scale = 3.0
    rng = np.random.default_rng(13)
    agent.actor.weights[-1][...] = rng.normal(scale=10.0, size=agent.actor.weights[-1].shape)
    observations = rng.normal(size=(64, 3))
    out, _ = forward(agent.actor, agent.scaler(observations)[:, None, :])
    actions = greedy_policy(agent.actor, agent.scaler, None, agent.actions)(observations)
    assert len(actions) == 64
    assert all(type(a) is np.ndarray and a.dtype == np.float64 and a.shape == (1,)
               for a in actions)
    clipped = np.clip(out[:, 0], -2.0, 2.0)
    assert np.stack(actions).tobytes() == clipped.tobytes()
    assert (clipped == 2.0).any() and (clipped == -2.0).any() and (np.abs(clipped) < 2.0).any()


@pytest.mark.parametrize("batch_size", [1, 33, 64])
def test_ddpg_update_scales_the_state_block_like_two_arrays(batch_size) -> None:
    # The update scales the batch's block in one call and copies it into
    # the critic's input in one block copy; a twin scales states and
    # next states apart and builds the critic rows column by column.
    def make() -> DdpgAgent:
        return DdpgAgent(BoxAction(1, -2.0, 2.0), DdpgConfig(gamma=0.9, tau=0.1),
                         offset_scaler(3), np.random.default_rng(0))

    agent, twin = make(), make()
    rng = np.random.default_rng(batch_size)
    for step in range(3):
        batch = make_batch(random_rows(batch_size, discrete=False, rng_seed=step),
                           rng.uniform(0.1, 1.0, size=batch_size))
        fill_critic_inputs(twin, batch)
        td_ref = twin.critic_update(batch)
        actor_step(twin, twin.scaler(batch.states))
        twin.sync_targets()
        td = agent.update(batch)
        assert td.tobytes() == td_ref.tobytes()
        for name in ("actor", "actor_target", "critic", "critic_target"):
            got, want = getattr(agent, name).params, getattr(twin, name).params
            assert got.tobytes() == want.tobytes(), name


# Every ordered pair and triple of these, so that +0.0 and -0.0 tie
# with each other in every position.
_FOLD_VALUES = (-1.5, -0.0, 0.0, 2.0, 5e-324, -5e-324)


@pytest.mark.parametrize("n_actions", [2, 3])
def test_max_over_actions_equals_the_reduce_and_keeps_td_targets(n_actions) -> None:
    q = np.array(list(itertools.product(_FOLD_VALUES, repeat=n_actions)))
    fold = max_over_actions(q)
    reduced = np.maximum.reduce(q, axis=1)
    assert np.array_equal(fold, reduced)
    assert (fold == 0.0).any()
    # The sign of a zero max never reaches a TD target.
    n = len(q)
    for reward, done, gamma in itertools.product((0.0, 1.0, -1.0), (0.0, 1.0), (0.0, 0.99, 1.0)):
        rewards, dones = np.full(n, reward), np.full(n, done)
        want = rewards + gamma * (1.0 - dones) * reduced
        got = rewards + gamma * (1.0 - dones) * fold
        assert got.tobytes() == want.tobytes(), (reward, done, gamma)
