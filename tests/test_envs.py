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


# --- bitwise reference: the dynamics as numpy-scalar formulas ---
#
# Frozen copies of the formulas the envs used when they did their scalar
# arithmetic on numpy float64 scalars. The envs now unpack each state
# into Python floats; IEEE doubles and the same operations in the same
# order must give the same bits, -0.0 included.


def reference_cartpole(state, action):
    c = CartPole
    x, x_dot, theta, theta_dot = state
    force = c.FORCE_MAG if action == 1 else -c.FORCE_MAG
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    temp = (force + c.POLE_MASS_LENGTH * theta_dot**2 * sin_t) / c.TOTAL_MASS
    theta_acc = (c.GRAVITY * sin_t - cos_t * temp) / (
        c.HALF_POLE_LENGTH * (4.0 / 3.0 - c.POLE_MASS * cos_t**2 / c.TOTAL_MASS)
    )
    x_acc = temp - c.POLE_MASS_LENGTH * theta_acc * cos_t / c.TOTAL_MASS
    x = x + c.DT * x_dot
    x_dot = x_dot + c.DT * x_acc
    theta = theta + c.DT * theta_dot
    theta_dot = theta_dot + c.DT * theta_acc
    done = bool(abs(x) > c.X_LIMIT or abs(theta) > c.THETA_LIMIT)
    return np.array([x, x_dot, theta, theta_dot]), 1.0, done


def reference_mountaincar(state, action):
    c = MountainCar
    position, velocity = state
    velocity += (action - 1) * c.FORCE + math.cos(3 * position) * (-c.GRAVITY)
    velocity = min(max(velocity, -c.MAX_SPEED), c.MAX_SPEED)
    position += velocity
    position = min(max(position, c.MIN_POSITION), c.MAX_POSITION)
    if position == c.MIN_POSITION and velocity < 0.0:
        velocity = 0.0
    done = bool(position >= c.GOAL_POSITION)
    return np.array([position, velocity]), (0.0 if done else -1.0), done


def reference_pendulum_goal_reward(state, action, goal, tolerance):
    theta = math.atan2(state[1], state[0])
    delta = wrap_angle(theta - float(goal[0]))
    torque = min(max(float(action[0]), -Pendulum.MAX_TORQUE), Pendulum.MAX_TORQUE)
    reward = -(delta**2 + 0.1 * state[2] ** 2 + 0.001 * torque**2)
    return reward, abs(delta) <= tolerance


def reference_pendulum(state, action):
    c = Pendulum
    action = np.asarray(action, dtype=np.float64).reshape(-1)
    torque = min(max(float(action[0]), -c.MAX_TORQUE), c.MAX_TORQUE)
    theta = math.atan2(state[1], state[0])
    theta_dot = state[2]
    theta_acc = 3.0 * c.GRAVITY / (2.0 * c.LENGTH) * math.sin(theta) + 3.0 / (
        c.MASS * c.LENGTH**2
    ) * torque
    theta_dot = theta_dot + theta_acc * c.DT
    theta_dot = min(max(theta_dot, -c.MAX_SPEED), c.MAX_SPEED)
    theta = theta + theta_dot * c.DT
    next_state = np.array([math.cos(theta), math.sin(theta), theta_dot])
    reward, _ = reference_pendulum_goal_reward(
        state, action, c.NATIVE_GOAL, c.spec.goal_tolerance
    )
    return next_state, reward, False


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_same_step(got, expected) -> None:
    next_state, reward, done = got
    assert next_state.dtype == np.float64
    assert bits(next_state) == bits(expected[0])
    assert bits(reward) == bits(expected[1])
    assert done is expected[2]


def edge_values(*values: float) -> list[float]:
    """Each value, its neighbours one ulp away, and its negation."""
    out = []
    for v in values:
        for w in (v, -v):
            out += [w, np.nextafter(w, -np.inf), np.nextafter(w, np.inf)]
    return out


def cartpole_states(rng) -> np.ndarray:
    edges = edge_values(CartPole.X_LIMIT, CartPole.THETA_LIMIT, 0.0)
    states = [
        # at the limits: zero speeds keep x or theta on the boundary
        np.array([x, 0.0, theta, 0.0]) for x in edges for theta in edges
    ]
    states += [np.array([-0.0, -0.0, -0.0, -0.0]), np.array([0.0, -0.0, 0.0, -0.0])]
    random = rng.uniform(-1.0, 1.0, size=(20000, 4)) * [3.0, 4.0, 0.5, 4.0]
    return np.vstack([states, random])


def mountaincar_states(rng) -> np.ndarray:
    c = MountainCar
    positions = edge_values(c.MIN_POSITION, c.MAX_POSITION, c.GOAL_POSITION, 0.0)
    speeds = edge_values(c.MAX_SPEED, c.MAX_SPEED - c.FORCE, 0.0)
    states = [np.array([p, v]) for p in positions for v in speeds]
    # left wall: arriving with any negative speed clamps and stops the car
    states += [np.array([c.MIN_POSITION + d, -v]) for d in (0.0, 1e-3, 0.02) for v in (0.01, 0.07)]
    random = np.column_stack(
        [rng.uniform(c.MIN_POSITION, c.MAX_POSITION, 15000), rng.uniform(-0.08, 0.08, 15000)]
    )
    return np.vstack([states, random])


def pendulum_cases(rng) -> list[tuple[np.ndarray, np.ndarray]]:
    c = Pendulum
    speeds = edge_values(c.MAX_SPEED, c.MAX_SPEED - 0.2, 0.0)
    torques = edge_values(c.MAX_TORQUE, 5.0, 50.0, 0.0)
    angles = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, 1.0, -2.5]
    cases = [
        (c.observation(a, s), np.array([t])) for a in angles for s in speeds for t in torques
    ]
    # off the unit circle too: the state is any float triple
    triples = rng.uniform(-1.0, 1.0, size=(15000, 3)) * [1.2, 1.2, 9.0]
    torques = rng.uniform(-3.0, 3.0, size=(15000, 1))
    return cases + list(zip(triples, torques))


def test_cartpole_dynamics_bitwise_equal_reference() -> None:
    for state in cartpole_states(np.random.default_rng(20)):
        for action in (0, 1):
            expected = reference_cartpole(state, action)
            assert_same_step(CartPole.dynamics(state, action), expected)


def test_mountaincar_dynamics_bitwise_equal_reference() -> None:
    for state in mountaincar_states(np.random.default_rng(21)):
        for action in (0, 1, 2):
            expected = reference_mountaincar(state, action)
            assert_same_step(MountainCar.dynamics(state, action), expected)


def test_pendulum_dynamics_and_goal_reward_bitwise_equal_reference() -> None:
    rng = np.random.default_rng(22)
    for state, action in pendulum_cases(rng):
        assert_same_step(Pendulum.dynamics(state, action), reference_pendulum(state, action))
        goal = rng.uniform(-4.0, 4.0, size=1)
        tolerance = float(rng.uniform(0.0, 1.0))
        reward, success = Pendulum.goal_reward(state, action, None, goal, tolerance)
        expected_reward, expected_success = reference_pendulum_goal_reward(
            state, action, goal, tolerance
        )
        assert bits(reward) == bits(expected_reward)
        assert success is expected_success


# --- the env contract ---


def some_action(spec, i: int):
    if isinstance(spec.actions, DiscreteActions):
        return i % spec.actions.n
    return np.array([2.0 * math.sin(i)])


@pytest.mark.parametrize("name", env_names())
def test_step_results_are_owned_by_the_caller(name) -> None:
    """Mutating what reset or step returned leaves the env's own state,
    and so its next steps, as they were."""
    spec = env_spec(name)
    plain, mutated = make_env(name), make_env(name)
    plain.reset(np.random.default_rng(10))
    mutated.reset(np.random.default_rng(10))[:] = 99.0
    for i in range(30):
        expected = plain.step(some_action(spec, i))
        got = mutated.step(some_action(spec, i))
        assert got.next_state.tobytes() == expected.next_state.tobytes()
        assert (got.reward, got.done, got.truncated) == (
            expected.reward, expected.done, expected.truncated
        )
        got.next_state[:] = 99.0
        if expected.done:
            break


@pytest.mark.parametrize("name", env_names())
def test_step_result_types_and_immutability(name) -> None:
    spec = env_spec(name)
    env = make_env(name)
    env.reset(np.random.default_rng(11))
    for i in range(spec.max_episode_steps):
        result = env.step(some_action(spec, i))
        assert result._fields == ("next_state", "reward", "done", "truncated")
        assert type(result.reward) is float
        assert type(result.done) is bool and type(result.truncated) is bool
        assert result.next_state.dtype == np.float64
        assert result.next_state.shape == (spec.obs_dim,)
        if result.done or result.truncated:
            break
    with pytest.raises(AttributeError):
        result.reward = 0.0


def test_discrete_actions_accept_integer_types() -> None:
    state = np.array([0.01, -0.02, 0.03, 0.04])
    expected = CartPole.dynamics(state, 1)
    for action in (1, np.int64(1), np.uint8(1), 1.0):
        got = CartPole.dynamics(state, action)
        assert got[0].tobytes() == expected[0].tobytes() and got[1:] == expected[1:]
    for bad in (np.True_, 2**70, -(2**70)):
        with pytest.raises(ValueError):
            CartPole.dynamics(state, bad)


def test_pendulum_action_forms_give_the_same_step() -> None:
    # An exact float64 (1,) array skips the conversion; every other
    # form goes through it and must land on the same bits.
    rng = np.random.default_rng(12)
    for _ in range(50):
        state = Pendulum.observation(rng.uniform(-math.pi, math.pi), rng.uniform(-8.0, 8.0))
        torque = rng.uniform(-3.0, 3.0)
        want = Pendulum.dynamics(state, np.array([torque]))
        for action in ([torque], (torque,), torque, np.array([[torque]]),
                       np.array([torque], dtype=np.longdouble),
                       np.array([torque])[::-1]):
            got = Pendulum.dynamics(state, action)
            assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]
    with pytest.raises(ValueError, match="finite"):
        Pendulum.dynamics(state, np.array([np.inf]))
    with pytest.raises(ValueError, match="single torque"):
        Pendulum.dynamics(state, np.zeros(0))
