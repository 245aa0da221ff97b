"""Ring-buffer transition storage with uniform and combined sampling.

The buffer is a fixed-capacity FIFO kept as struct-of-arrays columns:
state, action, reward, next_state and done. This module is the only
one that knows that layout. A row is stored as the learner reads it:
on goal tasks its states already carry the goal, appended by
:func:`replaykit.hindsight.augment_observation`, and the buffer treats
them as any other state vector. Samplers are free functions returning
``(indices, weights)`` arrays, so strategies can be stacked: combined
sampling wraps any inner sampler and forces the newest slot into
position 0 of every batch. :meth:`ReplayBuffer.gather` turns sampled
slots into one :class:`Batch` of arrays for the learner, whose states
and next states are the two halves of one (2, n, dim) block. Rows arrive
one at a time through :meth:`ReplayBuffer.append`, or as columns through
:meth:`ReplayBuffer.extend`, one checked write with the result of one
append per row; the harness stores a relabeled episode that way.

Each fact about a sampled slot is checked once, at the hop that
establishes it. A uniform draw lies in [0, len) because the generator
draws it there; combined sampling's newest slot is filled once the
buffer is not empty; prioritized sampling checks its last, largest
slot against the fill. So the slots every sampler here returns are
filled, and :meth:`ReplayBuffer.gather_filled` builds their batch with
no check of its own, while :meth:`ReplayBuffer.gather` checks slots
from anywhere else.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, NotReadyError


class Batch:
    """Sampled rows as parallel arrays.

    ``state_block`` is one (2, n, dim) array: its halves ``states`` and
    ``next_states`` are the stored rows, so on goal tasks they carry
    the goal the row was stored with, and a learner scales both in one
    call. ``dones`` is 0.0/1.0; ``weights`` are the per-sample loss
    weights (all 1.0 for unweighted samplers, then read-only).
    """

    __slots__ = ("indices", "state_block", "actions", "rewards", "dones", "weights")

    def __init__(self, indices, state_block, actions, rewards, dones, weights) -> None:
        self.indices = indices
        self.state_block = state_block
        self.actions = actions
        self.rewards = rewards
        self.dones = dones
        self.weights = weights

    @property
    def states(self) -> np.ndarray:
        return self.state_block[0]

    @property
    def next_states(self) -> np.ndarray:
        return self.state_block[1]

    def __len__(self) -> int:
        return self.indices.shape[0]


class ReplayBuffer:
    """Fixed-capacity FIFO store of transitions.

    Slots are reused in insertion order once the buffer is full; the
    slot index returned by :meth:`append` is stable until that slot is
    overwritten, so priority samplers can key their bookkeeping on it.

    ``done`` records task termination only; episodes cut off by a step
    limit store ``done=False`` so that learners bootstrap through the
    cutoff. On goal tasks each state is the observation with the goal
    its reward was computed against appended.

    The columns are allocated by the first append, which fixes the
    state and action shapes. They are zero-filled, so pages of
    slots never written are not resident in memory. ``done`` is stored
    as float64 0.0/1.0, the dtype a :class:`Batch` carries, so no batch
    converts it.
    """

    def __init__(self, capacity: int) -> None:
        if not isinstance(capacity, int) or capacity < 1:
            raise ConfigurationError(f"capacity must be a positive int, got {capacity!r}")
        self.capacity = capacity
        self._cursor = 0  # next slot to write
        self._count = 0
        # (state, action) shapes of every row; None until the first
        # append allocates the columns.
        self._shapes: tuple | None = None

    def __len__(self) -> int:
        return self._count

    @property
    def newest(self) -> int:
        """Slot index of the most recently appended transition."""
        if self._count == 0:
            raise NotReadyError("buffer is empty")
        return (self._cursor - 1) % self.capacity

    def append(self, state, action, reward, next_state, done) -> int:
        """Store one transition, evicting the oldest entry when full.

        Returns the slot index written.
        """
        state = np.asarray(state, dtype=np.float64)
        next_state = np.asarray(next_state, dtype=np.float64)
        action = np.asarray(action, dtype=np.float64)
        if state.ndim != 1 or next_state.ndim != 1:
            raise ValueError("states must be 1-D vectors")
        if state.shape != next_state.shape:
            raise ValueError(
                f"state shape {state.shape} != next_state shape {next_state.shape}"
            )
        # Python floats check cheaper than a numpy call per short row.
        if not all(map(math.isfinite, state.tolist() + next_state.tolist())):
            raise ValueError("state components must be finite")
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward!r}")
        self._fit((state.shape, action.shape))
        index = self._cursor
        self._states[index] = state
        self._actions[index] = action
        self._rewards[index] = reward
        self._next_states[index] = next_state
        self._dones[index] = bool(done)
        self._cursor = (self._cursor + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)
        return index

    def extend(self, states, actions, rewards, next_states, dones) -> np.ndarray:
        """Store n transitions given as columns, one row per transition,
        with the result of n :meth:`append` calls in row order.

        Every row is checked as ``append`` checks it before anything is
        written. Returns the slots written, in row order; when n exceeds
        the capacity only the last ``capacity`` rows are kept, as
        appends would leave them, and only their slots are returned.
        """
        states = np.asarray(states, dtype=np.float64)
        next_states = np.asarray(next_states, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        rewards = np.asarray(rewards, dtype=np.float64)
        dones = np.asarray(dones, dtype=bool)
        if states.ndim != 2 or states.shape != next_states.shape:
            raise ValueError(
                f"states and next_states must be (n, dim) of one shape, got "
                f"{states.shape} and {next_states.shape}"
            )
        n = len(states)
        if rewards.shape != (n,) or dones.shape != (n,) or actions.shape[:1] != (n,):
            raise ValueError(f"every column must have {n} rows")
        if not (np.isfinite(states).all() and np.isfinite(next_states).all()):
            raise ValueError("state components must be finite")
        if not np.isfinite(rewards).all():
            raise ValueError("rewards must be finite")
        self._fit((states.shape[1:], actions.shape[1:]))
        # A slot written twice keeps its later row, but numpy leaves
        # open which value a repeated fancy index stores: write only the
        # rows that the appends would leave, at distinct slots.
        keep = slice(max(n - self.capacity, 0), n)
        slots = (self._cursor + np.arange(n)[keep]) % self.capacity
        self._states[slots] = states[keep]
        self._actions[slots] = actions[keep]
        self._rewards[slots] = rewards[keep]
        self._next_states[slots] = next_states[keep]
        self._dones[slots] = dones[keep]
        self._cursor = (self._cursor + n) % self.capacity
        self._count = min(self._count + n, self.capacity)
        return slots

    def _fit(self, shapes: tuple) -> None:
        """Check the (state, action) shapes of a row against the
        buffer's; the first row allocates the columns."""
        if self._shapes is None:
            self._allocate(shapes)
        elif shapes != self._shapes:
            raise ValueError(
                f"(state, action) shapes {shapes} != the buffer's {self._shapes}"
            )

    def _allocate(self, shapes: tuple) -> None:
        state_shape, action_shape = shapes
        self._shapes = shapes
        self._states = np.zeros((self.capacity, *state_shape))
        self._actions = np.zeros((self.capacity, *action_shape))
        self._rewards = np.zeros(self.capacity)
        self._next_states = np.zeros((self.capacity, *state_shape))
        self._dones = np.zeros(self.capacity)

    def gather(self, indices, weights=None) -> Batch:
        """The rows at slots ``indices`` as one :class:`Batch`;
        ``weights`` default to the shared read-only unit weights.
        Raises IndexError unless every slot is filled."""
        indices = np.asarray(indices, dtype=np.int64)
        if not (indices.size and 0 <= indices.min() and indices.max() < self._count):
            raise IndexError(f"slots {indices} are not among the {self._count} filled")
        return self.gather_filled(indices, _unit_weights(indices.size) if weights is None else weights)

    def gather_filled(self, indices: np.ndarray, weights: np.ndarray) -> Batch:
        """:meth:`gather` of int64 ``indices`` that the caller knows are
        filled slots, as every sampler in this module returns them;
        nothing is checked. The states and next states are taken
        straight into the two halves of the batch's ``state_block``."""
        block = np.empty((2, indices.shape[0], *self._shapes[0]))
        # take copies whole rows of a 2-D column with less overhead than
        # fancy indexing. In mode "wrap" it writes into ``out`` with no
        # buffer; a filled slot is in range, so nothing wraps.
        self._states.take(indices, axis=0, out=block[0], mode="wrap")
        self._next_states.take(indices, axis=0, out=block[1], mode="wrap")
        return Batch(
            indices, block, self._actions[indices], self._rewards[indices],
            self._dones[indices], weights,
        )


# Read-only all-ones weight vectors by row count, shared by every
# uniform batch and every gather with default weights. The counts are
# batch sizes and episode lengths, so the table stays small.
_UNIT_WEIGHTS: dict[int, np.ndarray] = {}


def _unit_weights(n: int) -> np.ndarray:
    """The shared read-only vector of n weights 1.0."""
    weights = _UNIT_WEIGHTS.get(n)
    if weights is None:
        weights = _UNIT_WEIGHTS[n] = np.ones(n)
        weights.flags.writeable = False
    return weights


def sample_uniform(
    buffer: ReplayBuffer, batch_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``batch_size`` slots uniformly with replacement; the unit
    weights are shared and read-only."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(buffer) == 0:
        raise NotReadyError("cannot sample from an empty buffer")
    return rng.integers(0, len(buffer), size=batch_size), _unit_weights(batch_size)


def sample_combined(
    buffer: ReplayBuffer,
    batch_size: int,
    inner_sampler,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a batch whose first slot is always the newest transition.

    The remaining ``batch_size - 1`` slots come from ``inner_sampler``,
    called as ``inner_sampler(buffer, n, rng)``; the forced slot gets
    weight 1.0.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(buffer) == 0:
        raise NotReadyError("cannot sample from an empty buffer")
    indices, weights = np.empty(batch_size, dtype=np.int64), np.empty(batch_size)
    indices[0], weights[0] = buffer.newest, 1.0
    if batch_size > 1:
        indices[1:], weights[1:] = inner_sampler(buffer, batch_size - 1, rng)
    return indices, weights
