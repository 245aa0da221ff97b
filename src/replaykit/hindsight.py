"""Final-state goal relabeling for goal-reaching tasks.

An :class:`Episode` records the states, actions and next states of
the steps taken so far. After the episode ends,
:func:`relabeled_transitions` returns one copy of every step as
columns, with the goal replaced by the goal actually achieved at the
episode's final state and the reward recomputed under that substitute
goal. The harness appends those rows to the replay buffer after the
originals it stored step by step, so a relabeled episode contributes
exactly twice its length in stored transitions.

Goal-conditioned rewards are evaluated on the arrival state of each
transition, which makes the final relabeled transition a success by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .envs import MountainCar, extract_achieved_goal, wrap_angle
from .errors import IntegrityError, UnsupportedGoalError

# Default success tolerances in goal space.
MOUNTAINCAR_TOLERANCE = 0.05
PENDULUM_TOLERANCE = 0.1


class Episode:
    """The steps of one episode, chained state to state: parallel lists
    of state, action and next-state arrays."""

    def __init__(self) -> None:
        self.states: list[np.ndarray] = []
        self.actions: list = []
        self.next_states: list[np.ndarray] = []
        self._ended = False

    def append(self, state, action, next_state, done: bool) -> None:
        if self.states:
            if self._ended:
                raise IntegrityError("cannot append past a terminal transition")
            if not np.array_equal(self.next_states[-1], state):
                raise IntegrityError(
                    "transition does not chain: state differs from previous next_state"
                )
        self.states.append(state)
        self.actions.append(action)
        self.next_states.append(next_state)
        self._ended = bool(done)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def final_state(self) -> np.ndarray:
        if not self.states:
            raise IntegrityError("episode is empty")
        return self.next_states[-1]


class Columns(NamedTuple):
    """Steps as parallel arrays, one row per step, in the order
    of ``ReplayBuffer.append``'s arguments."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    goals: np.ndarray


@dataclass(frozen=True)
class GoalSpec:
    """How an environment exposes goals.

    ``native_goal`` is the goal-space encoding of the environment's own
    task: the goal vector under which ``goal_reward`` reproduces the
    native reward function exactly. ``goal_center`` / ``goal_halfwidth``
    extend the observation scaling to the appended goal components.
    """

    env_name: str
    goal_dim: int
    tolerance: float
    native_goal: tuple[float, ...]
    goal_reward: Callable[[np.ndarray, object, np.ndarray], tuple[float, bool]]
    goal_center: tuple[float, ...]
    goal_halfwidth: tuple[float, ...]

    def achieved(self, state: np.ndarray) -> np.ndarray:
        return extract_achieved_goal(self.env_name, state)


def mountaincar_goal_reward(
    state: np.ndarray,
    action,
    goal: np.ndarray,
    tolerance: float = MOUNTAINCAR_TOLERANCE,
) -> tuple[float, bool]:
    """Sparse goal reward: 0 on success, -1 otherwise.

    Success means the car's position lies within ``tolerance`` of the
    goal position, mirroring the native terminal-step semantics where
    reaching the flag yields reward 0.
    """
    success = abs(float(state[0]) - float(goal[0])) <= tolerance
    return (0.0 if success else -1.0), success


def pendulum_goal_reward(
    state: np.ndarray,
    action,
    goal: np.ndarray,
    tolerance: float = PENDULUM_TOLERANCE,
) -> tuple[float, bool]:
    """Dense goal reward: the native cost with the angle error taken
    relative to the goal angle instead of upright.

    With goal angle 0 this is exactly the native reward function.
    Success means the angle error is within ``tolerance`` radians after
    wrapping into (-pi, pi].
    """
    theta = math.atan2(float(state[1]), float(state[0]))
    delta = wrap_angle(theta - float(goal[0]))
    theta_dot = float(state[2])
    action_sq = float(np.sum(np.square(np.asarray(action, dtype=np.float64))))
    reward = -(delta**2 + 0.1 * theta_dot**2 + 0.001 * action_sq)
    return reward, abs(delta) <= tolerance


def goal_spec_for(env_name: str, tolerance: float | None = None) -> GoalSpec:
    """Goal-space description for an environment, or raise
    UnsupportedGoalError when it has none."""
    if env_name == "mountaincar":
        tol = MOUNTAINCAR_TOLERANCE if tolerance is None else float(tolerance)
        # The native task succeeds on [goal position, right wall]. A
        # tolerance band centered one tolerance past the flag covers
        # exactly that interval (positions cannot exceed the wall), so
        # this encoding reproduces native rewards verbatim.
        center = MountainCar.GOAL_POSITION + tol
        return GoalSpec(
            env_name="mountaincar",
            goal_dim=1,
            tolerance=tol,
            native_goal=(center,),
            goal_reward=lambda s, a, g: mountaincar_goal_reward(s, a, g, tol),
            goal_center=(-0.3,),
            goal_halfwidth=(0.9,),
        )
    if env_name == "pendulum":
        tol = PENDULUM_TOLERANCE if tolerance is None else float(tolerance)
        return GoalSpec(
            env_name="pendulum",
            goal_dim=1,
            tolerance=tol,
            native_goal=(0.0,),
            goal_reward=lambda s, a, g: pendulum_goal_reward(s, a, g, tol),
            goal_center=(0.0,),
            goal_halfwidth=(math.pi,),
        )
    if env_name == "cartpole":
        raise UnsupportedGoalError("cartpole does not define a goal space")
    raise ValueError(f"unknown environment {env_name!r}")


def augment_observation(state: np.ndarray, goal: np.ndarray | None) -> np.ndarray:
    """Concatenate the goal onto the observation; identity when the
    goal is absent or empty."""
    if goal is None or len(goal) == 0:
        return np.asarray(state, dtype=np.float64)
    return np.concatenate([np.asarray(state, dtype=np.float64), np.asarray(goal, dtype=np.float64)])


def relabeled_transitions(episode: Episode, spec: GoalSpec) -> Columns:
    """The episode's steps relabeled with the goal achieved at the
    final state, rewards recomputed accordingly, in episode order.

    A relabeled transition is terminal exactly when it succeeds under
    the substitute goal; the last one always does.
    """
    n = len(episode)
    if n == 0:
        raise IntegrityError("cannot relabel an empty episode")
    new_goal = spec.achieved(episode.final_state)
    rewards = np.empty(n)
    dones = np.empty(n, dtype=bool)
    for i, (action, next_state) in enumerate(zip(episode.actions, episode.next_states)):
        rewards[i], dones[i] = spec.goal_reward(next_state, action, new_goal)
    return Columns(
        states=np.array(episode.states, dtype=np.float64),
        actions=np.array(episode.actions),
        rewards=rewards,
        next_states=np.array(episode.next_states, dtype=np.float64),
        dones=dones,
        goals=np.tile(new_goal, (n, 1)),
    )
