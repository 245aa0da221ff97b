from __future__ import annotations

import math

import numpy as np
import pytest

from replaykit.envs import MountainCar, Pendulum, env_class, make_env, wrap_angle
from replaykit.errors import IntegrityError
from replaykit.hindsight import Columns, augment_observation, relabeled_transitions

MC_TOL = MountainCar.spec.goal_tolerance
PENDULUM_TOL = Pendulum.spec.goal_tolerance
# The goal tail the rows are stored with: no test relabels with it, so
# each one sees it replaced.
STORED_GOAL = np.array([-7.0])


def stored_rows(states, actions, next_states) -> Columns:
    """Steps as the buffer stores them: goal-augmented states and
    float64 actions. Relabeling reads neither rewards nor dones, so
    both are zero."""
    n = len(states)
    return Columns(
        states=augment_observation(states, STORED_GOAL),
        actions=np.array(actions, dtype=np.float64),
        rewards=np.zeros(n),
        next_states=augment_observation(next_states, STORED_GOAL),
        dones=np.zeros(n, dtype=bool),
    )


def chain(states: list[np.ndarray]) -> Columns:
    """The steps between consecutive states, action i % 2 at step i."""
    return stored_rows(states[:-1], [i % 2 for i in range(len(states) - 1)], states[1:])


def goals_of(columns) -> np.ndarray:
    """The goal appended to each relabeled row: the 1-D goal tail of its
    state, which its next state must carry too."""
    goals = columns.states[:, -1:]
    assert np.array_equal(columns.next_states[:, -1:], goals)
    return goals


def mountaincar_states(n: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    env = make_env("mountaincar")
    states = [env.reset(rng)]
    for _ in range(n):
        states.append(env.step(int(rng.integers(3))).next_state)
    return states


def test_relabeling_empty_rows_raises() -> None:
    with pytest.raises(IntegrityError):
        relabeled_transitions(
            stored_rows(np.empty((0, 2)), [], np.empty((0, 2))), MountainCar, MC_TOL
        )


def test_goal_spec_lookup() -> None:
    mc = env_class("mountaincar")
    assert mc is MountainCar
    assert mc.spec.goal_dim == 1
    assert mc.spec.goal_tolerance == 0.05
    assert (mc.spec.goal_center, mc.spec.goal_halfwidth) == ((-0.3,), (0.9,))
    assert mc.spec.success_ends_episode
    assert mc.native_goal(0.05).tolist() == [0.55]
    pend = env_class("pendulum")
    assert pend.spec.goal_dim == 1
    assert pend.spec.goal_tolerance == 0.1
    assert (pend.spec.goal_center, pend.spec.goal_halfwidth) == ((0.0,), (math.pi,))
    assert not pend.spec.success_ends_episode
    assert pend.native_goal(0.2).tolist() == [0.0]
    assert env_class("cartpole").spec.goal_dim == 0
    with pytest.raises(ValueError):
        env_class("acrobot")


def test_augment_observation() -> None:
    state = np.array([1.0, 2.0])
    assert augment_observation(state, np.array([3.0])) == pytest.approx([1.0, 2.0, 3.0])
    assert augment_observation(state, None) == pytest.approx([1.0, 2.0])
    assert augment_observation(state, np.empty(0)) == pytest.approx([1.0, 2.0])
    # a stack of rows: each row holds the bits of its own 1-D augment
    rows = np.random.default_rng(0).normal(size=(5, 3))
    goal = np.array([0.1, -7.25])
    stacked = augment_observation(rows, goal)
    assert stacked.shape == (5, 5)
    want = np.stack([augment_observation(row, goal) for row in rows])
    assert stacked.tobytes() == want.tobytes()
    assert augment_observation(list(rows), goal).tobytes() == want.tobytes()
    for absent in (None, np.empty(0)):
        assert augment_observation(rows, absent).tobytes() == rows.tobytes()


def mountaincar_goal_reward(next_state, goal):
    # MountainCar scores the state a step arrives at; the state it
    # leaves (far from every goal here) must not matter.
    return MountainCar.goal_reward(np.array([-1.2, 0.0]), 0, next_state, goal, MC_TOL)


def test_mountaincar_goal_reward_examples() -> None:
    goal = np.array([0.5])
    reward, success = mountaincar_goal_reward(np.array([0.5, 0.0]), goal)
    assert (reward, success) == (0.0, True)
    reward, success = mountaincar_goal_reward(np.array([-0.4, 0.0]), goal)
    assert (reward, success) == (-1.0, False)
    reward, success = mountaincar_goal_reward(np.array([0.48, 0.0]), goal)
    assert (reward, success) == (0.0, True)
    # just outside the band
    reward, success = mountaincar_goal_reward(np.array([0.44, 0.0]), goal)
    assert (reward, success) == (-1.0, False)


def pendulum_goal_reward(state, action, goal):
    # Pendulum scores the state a step leaves; the state it arrives at
    # (upright at rest here) must not matter.
    return Pendulum.goal_reward(
        state, [action], Pendulum.observation(0.0, 0.0), goal, PENDULUM_TOL
    )


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
    rng = np.random.default_rng(31)
    native_goal = MountainCar.native_goal(MC_TOL)
    for _ in range(10_000):
        state = np.array(
            [
                rng.uniform(MountainCar.MIN_POSITION, MountainCar.MAX_POSITION),
                rng.uniform(-MountainCar.MAX_SPEED, MountainCar.MAX_SPEED),
            ]
        )
        native_done = state[0] >= MountainCar.GOAL_POSITION
        native_reward = 0.0 if native_done else -1.0
        reward, success = mountaincar_goal_reward(state, native_goal)
        assert reward == native_reward
        assert success == native_done


def test_pendulum_native_goal_reproduces_native_rewards() -> None:
    rng = np.random.default_rng(32)
    native_goal = Pendulum.native_goal(PENDULUM_TOL)
    for _ in range(10_000):
        theta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        theta_dot = rng.uniform(-8.0, 8.0)
        action = rng.uniform(-2.0, 2.0)
        state = Pendulum.observation(theta, theta_dot)
        reward, _ = pendulum_goal_reward(state, action, native_goal)
        assert reward == Pendulum.dynamics(state, [action])[1]


def test_relabel_doubles_and_preserves_originals() -> None:
    states = mountaincar_states(6)
    episode = chain(states)
    before = [column.copy() for column in episode]
    out = relabeled_transitions(episode, MountainCar, MC_TOL)
    # one relabeled copy per step: with the originals, twice the length
    assert all(len(column) == len(episode.states) == 6 for column in out)
    # the episode's own steps are untouched, in order
    assert all(np.array_equal(column, old) for column, old in zip(episode, before))
    assert np.array_equal(episode.states[:, :2], np.array(states[:-1]))
    assert np.array_equal(episode.next_states[:, :2], np.array(states[1:]))
    # relabeled copies keep order, actions, and states (ahead of the goal)
    assert np.array_equal(out.states[:, :2], np.array(states[:-1]))
    assert np.array_equal(out.next_states[:, :2], np.array(states[1:]))
    assert list(out.actions) == [i % 2 for i in range(6)]


def test_relabeled_goal_is_final_achieved_goal() -> None:
    states = mountaincar_states(5, seed=3)
    episode = chain(states)
    relabeled = relabeled_transitions(episode, MountainCar, MC_TOL)
    expected_goal = np.array([states[-1][0]])
    assert relabeled.states.shape == relabeled.next_states.shape == (len(states) - 1, 3)
    for goal in goals_of(relabeled):
        assert np.array_equal(goal, expected_goal)


def test_relabeled_final_transition_succeeds() -> None:
    for seed in range(5):
        episode = chain(mountaincar_states(7, seed=seed))
        relabeled = relabeled_transitions(episode, MountainCar, MC_TOL)
        assert relabeled.dones[-1]
        assert relabeled.rewards[-1] == 0.0


def test_relabeled_rewards_recomputed_per_transition() -> None:
    states = mountaincar_states(8, seed=4)
    episode = chain(states)
    new_goal = np.array([states[-1][0]])
    relabeled = relabeled_transitions(episode, MountainCar, MC_TOL)
    for i, (action, next_state) in enumerate(zip(episode.actions, episode.next_states)):
        reward, success = mountaincar_goal_reward(next_state, new_goal)
        assert relabeled.rewards[i] == reward
        assert relabeled.dones[i] == success


def test_single_transition_episode() -> None:
    env = make_env("mountaincar")
    start = env.reset(np.random.default_rng(5))
    result = env.step(2)
    episode = stored_rows([start], [2], [result.next_state])
    out = relabeled_transitions(episode, MountainCar, MC_TOL)
    assert len(out.rewards) == 1
    assert out.dones[0]
    assert out.rewards[0] == 0.0
    assert np.array_equal(goals_of(out)[0], np.array([result.next_state[0]]))


def test_pendulum_relabel_success_flags() -> None:
    rng = np.random.default_rng(6)
    env = make_env("pendulum")
    obs = env.reset(rng)
    states, actions, next_states = [], [], []
    for _ in range(10):
        action = rng.uniform(-2.0, 2.0, size=1)
        result = env.step(action)
        states.append(obs)
        actions.append(action)
        next_states.append(result.next_state)
        obs = result.next_state
    episode = stored_rows(states, actions, next_states)
    # Pendulum's task never ends, so no relabeled step is terminal, even
    # where it succeeds: with a tolerance of 2 pi every step does.
    for tolerance in (PENDULUM_TOL, 2.0 * math.pi):
        relabeled = relabeled_transitions(episode, Pendulum, tolerance)
        assert not relabeled.dones.any()
    goal = np.array([math.atan2(next_states[-1][1], next_states[-1][0])])
    for got in goals_of(relabeled):
        assert np.array_equal(got, goal)


# --- trajectory-level invariant: the native goal reproduces the env ---


def reference_step_reward(env, state, action, next_state) -> float:
    """Each env's native step reward, written out here independently of
    the env classes: MountainCar pays 0 on reaching the flag and -1
    otherwise; Pendulum charges its cost on the state the (clipped)
    torque is applied in."""
    if env is MountainCar:
        return 0.0 if next_state[0] >= 0.5 else -1.0
    torque = min(max(float(np.asarray(action).reshape(-1)[0]), -2.0), 2.0)
    theta = math.atan2(state[1], state[0])
    theta_dot = state[2]
    return -(wrap_angle(theta) ** 2 + 0.1 * theta_dot**2 + 0.001 * float(torque) ** 2)


def test_pendulum_native_step_rewards_match_reference_formula() -> None:
    rng = np.random.default_rng(40)
    got, want = [], []
    for _ in range(10_000):
        state = Pendulum.observation(
            rng.uniform(-2.0 * math.pi, 2.0 * math.pi), rng.uniform(-8.0, 8.0)
        )
        action = rng.uniform(-3.0, 3.0, size=1)  # beyond the bounds too: clipped
        next_state, reward, _ = Pendulum.dynamics(state, action)
        got.append(reward)
        want.append(reference_step_reward(Pendulum, state, action, next_state))
    # upright at rest with zero torque: the cost is -0.0, sign bit included
    got.append(Pendulum.dynamics(Pendulum.observation(0.0, 0.0), [0.0])[1])
    want.append(-0.0)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def random_policy(env, rng):
    if env is MountainCar:
        return lambda obs: int(rng.integers(3))
    return lambda obs: rng.uniform(-3.0, 3.0, size=1)


def pumping_policy(env, rng):
    # Throttle along the velocity, with some random steps: reaches the
    # flag within the step limit from every start used below.
    return lambda obs: int(rng.integers(3)) if rng.random() < 0.2 else (2 if obs[1] >= 0 else 0)


def play(env, policy, rng):
    """One real episode: its states, actions and next states, and the
    rewards and dones the env gave."""
    instance = env()
    obs = instance.reset(rng)
    states, actions, next_states, rewards, dones = [], [], [], [], []
    while True:
        action = policy(obs)
        result = instance.step(action)
        states.append(obs)
        actions.append(action)
        next_states.append(result.next_state)
        rewards.append(result.reward)
        dones.append(result.done)
        obs = result.next_state
        if result.done or result.truncated:
            steps = (states, actions, next_states)
            return steps, np.array(rewards, dtype=np.float64), dones


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "env, make_policy",
    [(MountainCar, random_policy), (MountainCar, pumping_policy), (Pendulum, random_policy)],
    ids=["mountaincar-random", "mountaincar-to-flag", "pendulum-random"],
)
def test_native_goal_relabel_reproduces_episode(env, make_policy, seed) -> None:
    """Relabeling a real episode with the native goal instead of the
    achieved one gives back the env's own rewards and done flags, bit for
    bit, and those rewards are each env's native reward."""
    rng = np.random.default_rng(100 + seed)
    steps, rewards, dones = play(env, make_policy(env, rng), rng)
    if make_policy is pumping_policy:
        assert dones[-1], "the episode never reached the flag"
    tolerance = env.spec.goal_tolerance
    relabeled = relabeled_transitions(
        stored_rows(*steps), env, tolerance, goal=env.native_goal(tolerance)
    )
    assert relabeled.rewards.tobytes() == rewards.tobytes()
    assert relabeled.dones.tolist() == dones
    assert goals_of(relabeled).tolist() == [env.native_goal(tolerance).tolist()] * len(rewards)
    reference = [reference_step_reward(env, *step) for step in zip(*steps)]
    assert np.array(reference).tobytes() == rewards.tobytes()
