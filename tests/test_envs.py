from __future__ import annotations

import math

import numpy as np
import pytest

from replaykit.envs import (
    BoxAction,
    CartPole,
    DiscreteActions,
    MountainCar,
    Pendulum,
    env_class,
    env_names,
    env_spec,
    make_env,
    wrap_angle,
)
from replaykit.errors import ConfigurationError


def rollout(env, actions, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    obs = env.reset(rng)
    trajectory = [obs]
    for action in actions:
        result = env.step(action)
        trajectory.append(result.next_state)
        if result.done or result.truncated:
            break
    return trajectory, result


def test_registry_and_specs() -> None:
    assert env_names() == ["cartpole", "mountaincar", "pendulum"]
    assert env_spec("cartpole").solve_reward == 200.0
    assert env_spec("mountaincar").solve_reward == -110.0
    assert env_spec("pendulum").solve_reward is None
    assert env_spec("cartpole").actions == DiscreteActions(2)
    assert env_spec("mountaincar").actions == DiscreteActions(3)
    assert env_spec("pendulum").actions == BoxAction(1, -2.0, 2.0)
    with pytest.raises(ValueError):
        make_env("acrobot")


def test_reset_ranges() -> None:
    rng = np.random.default_rng(1)
    for _ in range(200):
        obs = make_env("cartpole").reset(rng)
        assert np.all(np.abs(obs) <= 0.05)
        pos, vel = make_env("mountaincar").reset(rng)
        assert -0.6 <= pos <= -0.4
        assert vel == 0.0
        cos_t, sin_t, theta_dot = make_env("pendulum").reset(rng)
        assert cos_t**2 + sin_t**2 == pytest.approx(1.0)
        assert -1.0 <= theta_dot <= 1.0


def test_same_seed_same_trajectory() -> None:
    for name in env_names():
        spec = env_spec(name)
        if isinstance(spec.actions, DiscreteActions):
            actions = [i % spec.actions.n for i in range(50)]
        else:
            actions = [np.array([math.sin(i)]) for i in range(50)]
        t1, r1 = rollout(make_env(name), actions, rng_seed=9)
        t2, r2 = rollout(make_env(name), actions, rng_seed=9)
        assert all(np.array_equal(a, b) for a, b in zip(t1, t2))
        assert (r1.reward, r1.done, r1.truncated) == (r2.reward, r2.done, r2.truncated)


def test_cartpole_reward_is_one_per_step() -> None:
    env = make_env("cartpole")
    env.reset(np.random.default_rng(2))
    for _ in range(20):
        result = env.step(1)
        assert result.reward == 1.0
        if result.done:
            break


def test_cartpole_terminates_on_angle() -> None:
    env = make_env("cartpole")
    env.reset(np.random.default_rng(3))
    # constant pushes topple the pole well before the cart leaves the track
    steps = 0
    while True:
        result = env.step(1)
        steps += 1
        if result.done:
            break
        assert steps < 200, "pole never fell under constant force"
    x, _, theta, _ = result.next_state
    assert abs(theta) > CartPole.THETA_LIMIT or abs(x) > CartPole.X_LIMIT


def test_cartpole_position_termination() -> None:
    # start beyond the track edge: any step terminates on |x|
    next_state, reward, done = CartPole.dynamics(np.array([2.41, 1.0, 0.0, 0.0]), 1)
    assert done
    assert reward == 1.0
    assert abs(next_state[0]) > 2.4


def test_cartpole_truncates_at_200() -> None:
    env = make_env("cartpole")
    env.reset(np.random.default_rng(4))
    done = truncated = False
    steps = 0
    alternating = 0
    state = None
    # a crude balancer: push against the pole's lean
    while not (done or truncated):
        state = env._state
        action = 1 if state[2] + 0.2 * state[3] > 0 else 0
        result = env.step(action)
        done, truncated = result.done, result.truncated
        steps += 1
    assert steps <= 200
    if truncated:
        assert steps == 200


def test_cartpole_invalid_actions() -> None:
    env = make_env("cartpole")
    env.reset(np.random.default_rng(5))
    for bad in (-1, 2, 0.5, "left", None, True):
        with pytest.raises(ValueError):
            env.step(bad)


def test_mountaincar_reward_and_termination() -> None:
    # stepping from just below the goal with full throttle and max speed
    state = np.array([0.45, 0.07])
    next_state, reward, done = MountainCar.dynamics(state, 2)
    assert done
    assert reward == 0.0
    assert next_state[0] >= 0.5
    # ordinary step: -1 and not done
    next_state, reward, done = MountainCar.dynamics(np.array([-0.5, 0.0]), 1)
    assert not done
    assert reward == -1.0


def test_mountaincar_velocity_clamp() -> None:
    state = np.array([-1.0, 0.0])
    for _ in range(1000):
        state, _, done = MountainCar.dynamics(state, 2)
        assert abs(state[1]) <= 0.07 + 1e-15
        assert -1.2 <= state[0] <= 0.6
        if done:
            break


def test_mountaincar_passive_car_stays_in_valley() -> None:
    """With zero throttle the discretized dynamics dissipate: the car
    cannot crest the hill from a standing start."""
    rng = np.random.default_rng(6)
    for _ in range(5):
        env = make_env("mountaincar")
        state = env.reset(rng)
        top = state[0]
        for _ in range(500):
            state, _, done = MountainCar.dynamics(state, 1)
            top = max(top, state[0])
            assert not done
        assert top < 0.5


def test_mountaincar_full_throttle_escapes() -> None:
    # alternating directions to build energy reaches the flag
    env = make_env("mountaincar")
    state = env.reset(np.random.default_rng(7))
    done = False
    for _ in range(10_000):
        action = 2 if state[1] >= 0.0 else 0
        state, reward, done = MountainCar.dynamics(state, action)
        if done:
            break
    assert done
    assert reward == 0.0


def pendulum_native_reward(state, torque: float) -> float:
    """Pendulum's step reward: its goal reward under the native goal."""
    tolerance = Pendulum.spec.goal_tolerance
    reward, _ = Pendulum.goal_reward(
        state, [torque], None, Pendulum.native_goal(tolerance), tolerance
    )
    return reward


def test_pendulum_reward_formula_examples() -> None:
    # upright at rest with zero torque costs nothing
    assert pendulum_native_reward(Pendulum.observation(0.0, 0.0), 0.0) == 0.0
    # hanging straight down costs pi^2
    assert pendulum_native_reward(Pendulum.observation(math.pi, 0.0), 0.0) == pytest.approx(
        -math.pi**2
    )
    assert pendulum_native_reward(Pendulum.observation(1.0, 1.0), 1.0) == pytest.approx(
        -(1.0 + 0.1 + 0.001)
    )
    # the step reward is charged on the state the torque is applied in
    state = Pendulum.observation(1.0, 1.0)
    assert Pendulum.dynamics(state, np.array([1.0]))[1] == pendulum_native_reward(state, 1.0)


def test_pendulum_never_done_truncates_at_200() -> None:
    env = make_env("pendulum")
    env.reset(np.random.default_rng(8))
    for step in range(1, 201):
        result = env.step(np.array([2.0]))
        assert not result.done
    assert result.truncated


def test_pendulum_clips_torque_and_speed() -> None:
    state = Pendulum.observation(math.pi / 2.0, 0.0)
    big = Pendulum.dynamics(state, np.array([50.0]))[0]
    clipped = Pendulum.dynamics(state, np.array([2.0]))[0]
    assert np.allclose(big, clipped)
    # hammer one direction; speed must stay within +-8
    state = Pendulum.observation(0.1, 0.0)
    for _ in range(200):
        state, _, _ = Pendulum.dynamics(state, np.array([2.0]))
        assert abs(state[2]) <= 8.0


def test_pendulum_rejects_bad_actions() -> None:
    state = Pendulum.observation(0.0, 0.0)
    with pytest.raises(ValueError):
        Pendulum.dynamics(state, np.array([np.nan]))
    with pytest.raises(ValueError):
        Pendulum.dynamics(state, np.array([1.0, 2.0]))


def test_pendulum_observation_stays_on_circle() -> None:
    rng = np.random.default_rng(9)
    env = make_env("pendulum")
    obs = env.reset(rng)
    for _ in range(100):
        obs = env.step(rng.uniform(-2.0, 2.0, size=1)).next_state
        assert obs[0] ** 2 + obs[1] ** 2 == pytest.approx(1.0)


def test_wrap_angle() -> None:
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    assert wrap_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert wrap_angle(-7.5 * math.pi) == pytest.approx(0.5 * math.pi)


def test_extract_achieved_goal() -> None:
    assert MountainCar.achieved_goal(np.array([0.37, 0.01])) == pytest.approx([0.37])
    obs = Pendulum.observation(1.2, 3.0)
    assert Pendulum.achieved_goal(obs) == pytest.approx([1.2])
    assert CartPole.spec.goal_dim == 0
    assert not hasattr(CartPole, "achieved_goal")
    with pytest.raises(ValueError):
        env_class("acrobot")


@pytest.mark.parametrize("tolerance", [0.05, 0.07, 0.3, 5.0])
def test_mountaincar_native_goal_covers_success_set(tolerance) -> None:
    goal = MountainCar.native_goal(tolerance)
    for position in (0.5 + 1e-12, 0.55, 0.6):
        assert MountainCar.goal_reward(None, 1, np.array([position, 0.0]), goal, tolerance) == (
            0.0,
            True,
        )
    assert MountainCar.goal_reward(None, 1, np.array([0.4999, 0.0]), goal, tolerance)[1] is False


@pytest.mark.parametrize("tolerance", [0.01, 0.049])
def test_mountaincar_native_goal_rejects_tolerance_below_floor(tolerance) -> None:
    # A band [0.5, 0.5 + 2 * tolerance] misses flag positions up to the
    # wall at 0.6: at 0.01, position 0.55 is a native success (reward 0)
    # but would score -1.
    with pytest.raises(ConfigurationError, match="goal_tolerance"):
        MountainCar.native_goal(tolerance)


def test_step_before_reset_raises() -> None:
    for name in env_names():
        env = make_env(name)
        action = 0 if isinstance(env.spec.actions, DiscreteActions) else np.zeros(1)
        with pytest.raises(RuntimeError):
            env.step(action)
