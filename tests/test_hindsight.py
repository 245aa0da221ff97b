from __future__ import annotations

import math

import numpy as np
import pytest

from replaykit.envs import MountainCar, Pendulum, make_env
from replaykit.errors import IntegrityError, UnsupportedGoalError
from replaykit.hindsight import (
    Episode,
    augment_observation,
    goal_spec_for,
    mountaincar_goal_reward,
    pendulum_goal_reward,
    relabeled_transitions,
)


def chain(states: list[np.ndarray], done_last=False) -> Episode:
    episode = Episode()
    for i in range(len(states) - 1):
        episode.append(states[i], i % 2, states[i + 1], done_last and i == len(states) - 2)
    return episode


def mountaincar_states(n: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    env = make_env("mountaincar")
    states = [env.reset(rng)]
    for _ in range(n):
        states.append(env.step(int(rng.integers(3))).next_state)
    return states


def test_episode_chaining_enforced() -> None:
    episode = Episode()
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])
    episode.append(a, 0, b, False)
    with pytest.raises(IntegrityError):
        episode.append(a, 0, b, False)  # does not chain from b
    episode.append(b, 0, a, True)
    with pytest.raises(IntegrityError):
        episode.append(a, 0, b, False)  # past terminal
    assert len(episode) == 2


def test_final_state_of_empty_episode() -> None:
    with pytest.raises(IntegrityError):
        Episode().final_state
    with pytest.raises(IntegrityError):
        relabeled_transitions(Episode(), goal_spec_for("mountaincar"))


def test_goal_spec_lookup() -> None:
    mc = goal_spec_for("mountaincar")
    assert mc.goal_dim == 1
    assert mc.tolerance == 0.05
    assert mc.native_goal == (0.55,)
    pend = goal_spec_for("pendulum", tolerance=0.2)
    assert pend.tolerance == 0.2
    assert pend.native_goal == (0.0,)
    with pytest.raises(UnsupportedGoalError):
        goal_spec_for("cartpole")
    with pytest.raises(ValueError):
        goal_spec_for("acrobot")


def test_augment_observation() -> None:
    state = np.array([1.0, 2.0])
    assert augment_observation(state, np.array([3.0])) == pytest.approx([1.0, 2.0, 3.0])
    assert augment_observation(state, None) == pytest.approx([1.0, 2.0])
    assert augment_observation(state, np.empty(0)) == pytest.approx([1.0, 2.0])


def test_mountaincar_goal_reward_examples() -> None:
    goal = np.array([0.5])
    reward, success = mountaincar_goal_reward(np.array([0.5, 0.0]), 0, goal)
    assert (reward, success) == (0.0, True)
    reward, success = mountaincar_goal_reward(np.array([-0.4, 0.0]), 0, goal)
    assert (reward, success) == (-1.0, False)
    reward, success = mountaincar_goal_reward(np.array([0.48, 0.0]), 0, goal)
    assert (reward, success) == (0.0, True)
    # just outside the band
    reward, success = mountaincar_goal_reward(np.array([0.44, 0.0]), 0, goal)
    assert (reward, success) == (-1.0, False)


def test_pendulum_goal_reward_examples() -> None:
    at_goal = Pendulum.observation(0.7, 0.0)
    reward, success = pendulum_goal_reward(at_goal, 0.0, np.array([0.7]))
    assert reward == pytest.approx(0.0)
    assert success
    spinning = Pendulum.observation(1.0, 1.0)
    reward, success = pendulum_goal_reward(spinning, 1.0, np.array([0.0]))
    assert reward == pytest.approx(-1.101)
    assert not success
    # angle error wraps across the seam: pi - 0.05 vs -pi + 0.05 differ by 0.1
    near_pi = Pendulum.observation(math.pi - 0.05, 0.0)
    reward, success = pendulum_goal_reward(near_pi, 0.0, np.array([-math.pi + 0.05]))
    assert success
    assert reward == pytest.approx(-0.1**2)


def test_mountaincar_native_goal_reproduces_native_rewards() -> None:
    """goal_reward at the native goal equals the environment's own
    reward on random states, exactly."""
    spec = goal_spec_for("mountaincar")
    rng = np.random.default_rng(31)
    native_goal = np.asarray(spec.native_goal)
    for _ in range(10_000):
        state = np.array(
            [
                rng.uniform(MountainCar.MIN_POSITION, MountainCar.MAX_POSITION),
                rng.uniform(-MountainCar.MAX_SPEED, MountainCar.MAX_SPEED),
            ]
        )
        native_done = state[0] >= MountainCar.GOAL_POSITION
        native_reward = 0.0 if native_done else -1.0
        reward, success = spec.goal_reward(state, 0, native_goal)
        assert reward == native_reward
        assert success == native_done


def test_pendulum_native_goal_reproduces_native_rewards() -> None:
    spec = goal_spec_for("pendulum")
    rng = np.random.default_rng(32)
    native_goal = np.asarray(spec.native_goal)
    for _ in range(10_000):
        theta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        theta_dot = rng.uniform(-8.0, 8.0)
        action = rng.uniform(-2.0, 2.0)
        state = Pendulum.observation(theta, theta_dot)
        reward, _ = spec.goal_reward(state, action, native_goal)
        assert reward == Pendulum.reward(state, action)


def test_relabel_doubles_and_preserves_originals() -> None:
    states = mountaincar_states(6)
    episode = chain(states)
    spec = goal_spec_for("mountaincar")
    out = relabeled_transitions(episode, spec)
    # one relabeled copy per step: with the originals, twice the length
    assert all(len(column) == len(episode) == 6 for column in out)
    # the episode's own steps are untouched, in order
    assert all(s is t for s, t in zip(episode.states, states))
    assert all(s is t for s, t in zip(episode.next_states, states[1:]))
    # relabeled copies keep order, actions, and states
    assert np.array_equal(out.states, np.array(states[:-1]))
    assert np.array_equal(out.next_states, np.array(states[1:]))
    assert list(out.actions) == [i % 2 for i in range(6)]


def test_relabeled_goal_is_final_achieved_goal() -> None:
    states = mountaincar_states(5, seed=3)
    episode = chain(states)
    spec = goal_spec_for("mountaincar")
    relabeled = relabeled_transitions(episode, spec)
    expected_goal = np.array([episode.final_state[0]])
    assert relabeled.goals.shape == (len(episode), 1)
    for goal in relabeled.goals:
        assert np.array_equal(goal, expected_goal)


def test_relabeled_final_transition_succeeds() -> None:
    spec = goal_spec_for("mountaincar")
    for seed in range(5):
        episode = chain(mountaincar_states(7, seed=seed))
        relabeled = relabeled_transitions(episode, spec)
        assert relabeled.dones[-1]
        assert relabeled.rewards[-1] == 0.0


def test_relabeled_rewards_recomputed_per_transition() -> None:
    spec = goal_spec_for("mountaincar")
    episode = chain(mountaincar_states(8, seed=4))
    new_goal = np.array([episode.final_state[0]])
    relabeled = relabeled_transitions(episode, spec)
    for i, (action, next_state) in enumerate(zip(episode.actions, episode.next_states)):
        reward, success = spec.goal_reward(next_state, action, new_goal)
        assert relabeled.rewards[i] == reward
        assert relabeled.dones[i] == success


def test_single_transition_episode() -> None:
    env = make_env("mountaincar")
    start = env.reset(np.random.default_rng(5))
    result = env.step(2)
    episode = Episode()
    episode.append(start, 2, result.next_state, result.done)
    out = relabeled_transitions(episode, goal_spec_for("mountaincar"))
    assert len(out.rewards) == 1
    assert out.dones[0]
    assert out.rewards[0] == 0.0
    assert np.array_equal(out.goals[0], np.array([result.next_state[0]]))


def test_pendulum_relabel_success_flags() -> None:
    rng = np.random.default_rng(6)
    env = make_env("pendulum")
    obs = env.reset(rng)
    episode = Episode()
    for _ in range(10):
        action = rng.uniform(-2.0, 2.0, size=1)
        result = env.step(action)
        episode.append(obs, action, result.next_state, result.done)
        obs = result.next_state
    spec = goal_spec_for("pendulum")
    relabeled = relabeled_transitions(episode, spec)
    assert relabeled.dones[-1]
    goal = np.array([math.atan2(episode.final_state[1], episode.final_state[0])])
    for got in relabeled.goals:
        assert np.array_equal(got, goal)
