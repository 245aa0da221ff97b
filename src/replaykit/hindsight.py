"""Final-state goal relabeling for goal-reaching tasks.

A goal-conditioned learner sees an observation with its goal
appended after the state, and :func:`augment_observation` is the one
place that builds that layout: the harness calls it on every state it
acts on and stores, and the greedy policy on every stack of rows it
scores. The replay buffer never sees a goal of its own; it stores the
augmented rows as they are.

Relabeling reads the rows the buffer already holds. After an episode
ends, the harness gathers its newest stored rows, in step order, and
:func:`relabeled_transitions` returns one copy of every step as
columns: the raw states are the stored states with their goal tails
cut off, the goal actually achieved at the episode's final state is
appended to both states instead, and the reward is recomputed under
that substitute goal. The harness appends those rows to the replay
buffer after the originals it stored step by step, so a relabeled
episode contributes exactly twice its length in stored transitions.
An episode longer than the buffer has only its newest ``capacity``
steps still stored, and only those are relabeled: the same rows that
relabeling every step would leave in the ring, in the same order.

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


def relabeled_transitions(rows, env: type[Env], tolerance: float, goal=None) -> Columns:
    """The steps of ``rows`` relabeled with ``goal``, by default the goal
    achieved at the final next state, with rewards recomputed by
    ``env.goal_reward`` at ``tolerance``, in row order.

    ``rows`` has ``states``, ``actions`` and ``next_states`` columns of
    goal-augmented rows in step order, as a ``Batch`` that
    ``ReplayBuffer.gather`` returns or :class:`Columns`; it is left as
    it is. The new
    goal replaces the goal tail of every state and next state.

    A relabeled step is terminal exactly when it succeeds under the
    goal and ``env.spec.success_ends_episode`` holds.
    """
    n = len(rows.states)
    if n == 0:
        raise IntegrityError("cannot relabel an empty episode")
    width = rows.states.shape[1] - env.spec.goal_dim
    states, next_states = rows.states[:, :width], rows.next_states[:, :width]
    if goal is None:
        goal = env.achieved_goal(next_states[-1])
    terminal = env.spec.success_ends_episode
    rewards = np.empty(n)
    dones = np.empty(n, dtype=bool)
    for i, step in enumerate(zip(states, rows.actions, next_states)):
        rewards[i], success = env.goal_reward(*step, goal, tolerance)
        dones[i] = success and terminal
    return Columns(
        states=augment_observation(states, goal),
        actions=rows.actions,
        rewards=rewards,
        next_states=augment_observation(next_states, goal),
        dones=dones,
    )
