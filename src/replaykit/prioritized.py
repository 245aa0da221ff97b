"""Proportional prioritized sampling over buffer slots.

A flat-array sum tree keeps per-slot priorities already raised to the
alpha exponent, so sampling is an O(log n) prefix-sum descent and the
probability of slot i is leaf(i) / total. Importance weights correct
the induced bias and are normalized by the batch maximum so the largest
weight in every batch is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NotReadyError, NumericalError
from .replay import ReplayBuffer


class SumTree:
    """Complete binary tree over ``leaf_capacity`` non-negative values.

    Internal nodes store the sum of their children. The leaf count is
    padded up to a power of two so every leaf sits at the same depth
    and the descent visits leaves in index order; padding leaves stay
    at zero and can never be selected.
    """

    def __init__(self, leaf_capacity: int) -> None:
        if not isinstance(leaf_capacity, int) or leaf_capacity < 1:
            raise ConfigurationError(
                f"leaf_capacity must be a positive int, got {leaf_capacity!r}"
            )
        self.leaf_capacity = leaf_capacity
        padded = 1
        while padded < leaf_capacity:
            padded *= 2
        self._padded = padded
        self._depth = padded.bit_length() - 1
        # Right shifts that take a 1-based heap position to each of its
        # ancestors, nearest first.
        self._shifts = np.arange(1, self._depth + 1)
        self._nodes = np.zeros(2 * padded - 1)

    @property
    def total(self) -> float:
        """Sum of all leaf values."""
        return float(self._nodes[0])

    @property
    def nodes(self) -> np.ndarray:
        """Read-only view of the heap array: internal sums first (root
        at 0), then the padded leaf row."""
        view = self._nodes.view()
        view.flags.writeable = False
        return view

    def leaf(self, index: int) -> float:
        self._check_index(index)
        return float(self._nodes[self._padded - 1 + index])

    def leaves(self, indices) -> np.ndarray:
        """Values of leaves ``indices``, as a new array."""
        return self._nodes[self._heap_positions(indices)]

    def set(self, index: int, value: float) -> None:
        """Set leaf ``index`` to ``value`` and refresh ancestor sums."""
        self._check_index(index)
        value = float(value)
        if not np.isfinite(value):
            raise NumericalError(f"priority must be finite, got {value!r}")
        if value < 0.0:
            raise ValueError(f"priority must be >= 0, got {value}")
        node = self._padded - 1 + index
        change = value - self._nodes[node]
        self._nodes[node] = value
        while node != 0:
            node = (node - 1) // 2
            self._nodes[node] += change

    def set_many(self, indices, values) -> None:
        """Apply ``set(i, v)`` for each pair in order, in one pass.

        The whole batch is checked before anything is written, so a bad
        index or value leaves the tree untouched. The result is bitwise
        equal to the scalar loop: each write's delta is taken against
        the leaf's value just before it (an earlier write in the batch
        for a repeated leaf), and every ancestor receives the deltas in
        write order, because ``np.add.at`` adds in element order.
        """
        positions = self._heap_positions(indices)
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != positions.size:
            raise ValueError("indices and values must have equal length")
        if not np.all(np.isfinite(values)):
            raise NumericalError("priorities must be finite")
        if values.size == 0:
            return
        if values.min() < 0.0:
            raise ValueError(f"priorities must be >= 0, got {values.min()}")
        # Group repeats of a leaf, keeping their write order.
        order = np.argsort(positions, kind="stable")
        grouped = positions[order]
        written = values[order]
        repeat = grouped[1:] == grouped[:-1]
        before = self._nodes[grouped]
        before[1:][repeat] = written[:-1][repeat]
        deltas = np.empty_like(values)
        deltas[order] = written - before
        last = np.append(~repeat, True)
        self._nodes[grouped[last]] = written[last]
        ancestors = ((positions + 1)[:, None] >> self._shifts) - 1
        np.add.at(self._nodes, ancestors.ravel(), np.repeat(deltas, self._depth))

    def sample(self, u: float) -> int:
        """Leaf index whose prefix-sum interval contains ``u``.

        Returns the unique i with prefix(i) <= u < prefix(i + 1) where
        prefix sums run over leaves in index order.
        """
        total = self.total
        if total <= 0.0:
            raise NotReadyError("cannot sample from a tree with zero total mass")
        if not 0.0 <= u < total:
            raise ValueError(f"u must lie in [0, {total}), got {u}")
        return int(self.sample_batch(np.array([u]))[0])

    def sample_batch(self, us: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sample` over an array of offsets."""
        total = self.total
        if total <= 0.0:
            raise NotReadyError("cannot sample from a tree with zero total mass")
        us = np.array(us, dtype=np.float64)
        if us.size and not (us.min() >= 0.0 and us.max() < total):
            raise ValueError("all offsets must lie in [0, total)")
        nodes = np.zeros(us.shape, dtype=np.int64)
        tree = self._nodes
        for _ in range(self._depth):
            nodes *= 2
            nodes += 1
            left = tree[nodes]
            right = us >= left
            # Subtracting left * False = 0.0 leaves us exactly as it was.
            us -= left * right
            nodes += right
        return nodes - (self._padded - 1)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.leaf_capacity:
            raise IndexError(
                f"leaf {index} out of range for capacity {self.leaf_capacity}"
            )

    def _heap_positions(self, indices) -> np.ndarray:
        """Heap positions of leaves ``indices`` after a range check."""
        indices = np.asarray(indices).ravel()
        if indices.size == 0:
            return indices.astype(np.int64)
        if indices.dtype.kind not in "iu":
            raise IndexError(f"leaf indices must be integers, got {indices.dtype}")
        if indices.min() < 0 or indices.max() >= self.leaf_capacity:
            raise IndexError(
                f"leaves {indices.min()}..{indices.max()} out of range for "
                f"capacity {self.leaf_capacity}"
            )
        return indices + (self._padded - 1)


@dataclass(frozen=True)
class PerConfig:
    """Prioritization hyperparameters.

    alpha blends uniform (0) and fully proportional (1) sampling; beta
    sets the importance-weight correction and is held constant over a
    run; epsilon is the additive floor keeping zero-error transitions
    sampleable; max_priority seeds the raw priority of fresh
    transitions before any error estimate exists.
    """

    alpha: float = 0.6
    beta: float = 0.4
    epsilon: float = 0.01
    max_priority: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigurationError(f"beta must be in [0, 1], got {self.beta}")
        for name in ("epsilon", "max_priority"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigurationError(f"{name} must be finite and > 0, got {value}")


class PrioritizedSampler:
    """Couples a sum tree to buffer slots for proportional replay.

    New transitions are inserted at the largest raw priority seen so
    far, which guarantees each is sampled at least once before its
    priority is refined by an observed TD error.
    """

    def __init__(self, capacity: int, config: PerConfig | None = None) -> None:
        self.config = config or PerConfig()
        self.tree = SumTree(capacity)
        self._max_raw = self.config.max_priority

    def insert(self, index: int) -> None:
        """Register slot ``index`` as freshly written.

        Any priority of an evicted transition previously in the slot is
        fully replaced.
        """
        self.tree.set(index, self._max_raw ** self.config.alpha)

    def update_priorities(self, indices, td_errors) -> None:
        """Refresh priorities from TD errors: raw priority |delta| + epsilon."""
        td_errors = np.asarray(td_errors, dtype=np.float64)
        if not np.all(np.isfinite(td_errors)):
            raise NumericalError("TD errors must be finite")
        if len(indices) != td_errors.size:
            raise ValueError("indices and td_errors must have equal length")
        raw = np.abs(td_errors.ravel()) + self.config.epsilon
        if raw.size == 0:
            return
        # Python-float pow on purpose: NumPy's array ** rounds differently
        # from scalar pow on some inputs, which would change results.
        alpha = self.config.alpha
        self.tree.set_many(indices, [r ** alpha for r in raw.tolist()])
        self._max_raw = max(self._max_raw, float(raw.max()))

    def sample(
        self, buffer: ReplayBuffer, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stratified proportional draw of ``batch_size`` slots; returns
        ``(indices, weights)``.

        The total mass is split into batch_size equal segments with one
        uniform draw per segment. Weights are (N * P(i)) ** -beta,
        normalized by the batch maximum.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if len(buffer) == 0:
            raise NotReadyError("cannot sample from an empty buffer")
        total = self.tree.total
        if total <= 0.0:
            raise NotReadyError("no transition has positive priority")
        segment = total / batch_size
        offsets = (np.arange(batch_size) + rng.random(batch_size)) * segment
        # Guard the upper edge: floating roundup may land exactly on total.
        offsets = np.minimum(offsets, np.nextafter(total, 0.0))
        indices = self.tree.sample_batch(offsets)
        n = len(buffer)
        probs = self.tree.leaves(indices) / total
        weights = (n * probs) ** -self.config.beta
        weights /= weights.max()
        return indices, weights
