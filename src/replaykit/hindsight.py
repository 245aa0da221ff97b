"""Final-state goal relabeling for goal-reaching tasks.

A goal-conditioned learner sees an observation with its goal
appended after the state, and :func:`augment_observation` is the one
place that builds that layout: the harness calls it on every state it
acts on and stores, and the greedy policy on every stack of rows it
scores. The replay buffer never sees a goal of its own; it stores the
augmented rows as they are.

An :class:`Episode` records the raw states, actions and next states of
the steps taken so far. After the episode ends,
:func:`relabeled_transitions` returns one copy of every step as
columns, with the goal actually achieved at the episode's final state
appended to both states and the reward recomputed under that
substitute goal. The harness appends those rows to the replay buffer
after the originals it stored step by step, so a relabeled episode
contributes exactly twice its length in stored transitions.

Every goal fact comes from the env class (see ``envs``): its
``goal_reward`` scores each step, and under the native goal it
reproduces the env's own rewards, so original and relabeled rows in
one buffer follow one reward function.

- MountainCar scores the state a step arrives at, as its task does, so
  the final relabeled step always succeeds. Its native goal needs a
  tolerance of at least 0.05 to cover the flag's success set.
- Pendulum scores the state a step leaves, where its torque is
  applied, as its task does.

A relabeled step is terminal when it succeeds under the new goal and
the env's task ends on success. MountainCar's does; Pendulum's never
ends, so its relabeled steps are never terminal, and its tolerance
only defines success, which no stored row depends on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .envs import Env
from .errors import IntegrityError


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
    of ``ReplayBuffer.append``'s arguments; both states carry the goal."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray


def augment_observation(state, goal: np.ndarray | None) -> np.ndarray:
    """The observation, or each row of a stack of observations, as
    float64 with the goal appended after the state; the observation
    alone when the goal is absent or empty. The values are copied, so
    every row holds the bits of the 1-D augment of that row."""
    state = np.asarray(state, dtype=np.float64)
    if goal is None or len(goal) == 0:
        return state
    width = state.shape[-1]
    out = np.empty((*state.shape[:-1], width + len(goal)))
    out[..., :width] = state
    out[..., width:] = goal
    return out


def relabeled_transitions(
    episode: Episode, env: type[Env], tolerance: float, goal=None
) -> Columns:
    """The episode's steps relabeled with ``goal``, by default the goal
    achieved at the final state, with rewards recomputed by
    ``env.goal_reward`` at ``tolerance``, in episode order. The goal is
    appended to every state and next state.

    A relabeled step is terminal exactly when it succeeds under the
    goal and ``env.spec.success_ends_episode`` holds.
    """
    n = len(episode)
    if n == 0:
        raise IntegrityError("cannot relabel an empty episode")
    if goal is None:
        goal = env.achieved_goal(episode.final_state)
    terminal = env.spec.success_ends_episode
    rewards = np.empty(n)
    dones = np.empty(n, dtype=bool)
    for i, step in enumerate(zip(episode.states, episode.actions, episode.next_states)):
        rewards[i], success = env.goal_reward(*step, goal, tolerance)
        dones[i] = success and terminal
    return Columns(
        states=augment_observation(episode.states, goal),
        actions=np.array(episode.actions),
        rewards=rewards,
        next_states=augment_observation(episode.next_states, goal),
        dones=dones,
    )
