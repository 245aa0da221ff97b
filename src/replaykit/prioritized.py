"""Proportional prioritized sampling over buffer slots.

A block-prefix store keeps per-slot priorities already raised to the
alpha exponent, so the probability of slot i is leaf(i) / total and a
draw is one search over block sums plus one within a block of 64.
Both searches, and the upkeep of the block prefix, stop at the highest
block ever written, and the search keys grow with the written blocks,
so a large store that holds few rows costs, in time and in resident
memory, what a small one does. Pendulum's 100,000-slot store holds at
most 3,200 rows, 50 of its 1,563 blocks, and its keys reach 64 blocks
(64 KiB), where keys for every slot would write 1.6 MB before the
first row.
Importance weights correct the induced bias and are normalized by the
batch maximum so the largest weight in every batch is exactly 1.

Each fact is checked once, where it is established. ``SumTree.set`` and
``set_many`` check what any caller writes, then write through an
unchecked core, ``SumTree._write``. ``update_priorities`` checks its
TD errors with the max that also updates the running max priority,
range-checks the slots, and hands the core priorities that are finite
and > 0 by construction. ``PrioritizedSampler.sample`` checks that its
last slot, the largest, is filled, so every slot it returns is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NotReadyError, NumericalError
from .replay import ReplayBuffer

BLOCK = 64


class SumTree:
    """Two-level prefix sums over ``leaf_capacity`` non-negative values.

    Leaves sit in blocks of ``BLOCK``, padded with zeros. Each block
    keeps the inclusive prefix sums of its leaves, recomputed from the
    leaves whenever one of them is written, so no sum drifts. A
    sequential prefix over the block totals ends in ``total``; it is
    recomputed from the first changed block before the next read, up to
    the highest block ever written, and the block search stops there
    too: past it every block is zero, so neither the work nor the result
    depends on the capacity. Every offset in [0, total) therefore falls
    in a block with positive mass, and within it on a leaf with positive
    value. The search keys cover the written blocks and at most as many
    again, so they grow with the rows held, not with the capacity.
    """

    def __init__(self, leaf_capacity: int) -> None:
        if not isinstance(leaf_capacity, int) or leaf_capacity < 1:
            raise ConfigurationError(
                f"leaf_capacity must be a positive int, got {leaf_capacity!r}"
            )
        self.leaf_capacity = leaf_capacity
        blocks = -(-leaf_capacity // BLOCK)
        # total, block totals, block prefix (from 0), zeros, then leaves.
        self._nodes = np.zeros(2 * blocks * BLOCK)
        # NumPy orders complex numbers by real part, then imaginary part,
        # so keys block + 1j * (in-block inclusive prefix) are sorted and
        # one search finds a leaf from (block, offset within the block).
        # They cover the written blocks and grow with them (_grow_keys).
        self._keys = np.empty(0, dtype=np.complex128)
        # First block whose entry in the block prefix is out of date, and
        # the number of blocks up to the highest one written.
        self._stale = blocks
        self._written = 0
        self._bind_views()

    def _bind_views(self) -> None:
        """Name the parts of ``_nodes`` and ``_keys`` that the methods
        read and write through."""
        blocks = self._nodes.size // (2 * BLOCK)
        self._totals = self._nodes[1 : blocks + 1]
        self._prefix = self._nodes[blocks + 1 : 2 * blocks + 2]
        self._leaves = self._nodes[blocks * BLOCK :]
        self._rows = self._leaves.reshape(blocks, BLOCK)
        self._inner = self._keys.imag.reshape(-1, BLOCK)

    def _grow_keys(self) -> None:
        """Make the keys cover the written blocks, doubling their length
        (up to the capacity) when they fall short. A block not yet
        covered has never been written, so its leaves, and with them its
        in-block prefix, are zero."""
        have = self._keys.size // BLOCK
        if self._written <= have:
            return
        grown = min(max(self._written, 2 * have), len(self._totals))
        keys = np.repeat(np.arange(grown, dtype=np.complex128), BLOCK)
        keys[: self._keys.size] = self._keys
        self._keys = keys
        self._inner = keys.imag.reshape(-1, BLOCK)

    # Copies and pickles carry only the two arrays and rebuild the views
    # on them; carried over, each view would become an array of its own,
    # so writes through _leaves and _inner would no longer reach the
    # sums and keys that reads use.
    def __getstate__(self) -> dict:
        names = ("leaf_capacity", "_nodes", "_keys", "_stale", "_written")
        return {name: self.__dict__[name] for name in names}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_views()

    @property
    def total(self) -> float:
        """Sum of all leaf values."""
        self._refresh()
        return float(self._nodes[0])

    @property
    def nodes(self) -> np.ndarray:
        """Read-only view of the store: the total at 0, the block totals,
        the block prefix, zeros, and the padded leaves as the second
        half."""
        self._refresh()
        # Past the written blocks the prefix is the total; fill it in.
        self._prefix[self._written + 1 :] = self._nodes[0]
        view = self._nodes.view()
        view.flags.writeable = False
        return view

    def leaf(self, index: int) -> float:
        return float(self.leaves([index])[0])

    def leaves(self, indices) -> np.ndarray:
        """Values of leaves ``indices``, as a new array."""
        return self._leaves[self._checked(indices)]

    def set(self, index: int, value: float) -> None:
        """Set leaf ``index`` to ``value`` and recompute its block."""
        if not 0 <= index < self.leaf_capacity:
            raise IndexError(f"leaf {index} out of range for capacity {self.leaf_capacity}")
        value = float(value)
        if not math.isfinite(value):
            raise NumericalError(f"priority must be finite, got {value!r}")
        if value < 0.0:
            raise ValueError(f"priority must be >= 0, got {value}")
        self._leaves[index] = value
        block = index // BLOCK
        # The prefix past the written blocks is never kept up to date, so
        # a write beyond them refreshes from the first of them.
        self._stale = min(self._stale, block, self._written)
        self._written = max(self._written, block + 1)
        self._grow_keys()
        row = self._inner[block]
        np.add.accumulate(self._rows[block], out=row)
        self._totals[block] = row[-1]

    def set_many(self, indices, values) -> None:
        """Apply ``set(i, v)`` for each pair in order, in one pass.

        The whole batch is checked before anything is written, so a bad
        index or value leaves the store untouched. A leaf written more
        than once keeps its last value, and each touched block is
        recomputed once, so the result is bitwise equal to the scalar
        loop.
        """
        indices = self._checked(indices)
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != indices.size:
            raise ValueError("indices and values must have equal length")
        if not np.isfinite(values).all():
            raise NumericalError("priorities must be finite")
        if values.size and values.min() < 0.0:
            raise ValueError(f"priorities must be >= 0, got {values.min()}")
        self._write(indices, values)

    def _write(self, indices: np.ndarray, values: np.ndarray) -> None:
        """:meth:`set_many` of ``indices`` already range-checked by
        :meth:`_checked` and of as many finite values >= 0; nothing is
        checked here."""
        if values.size == 0:
            return
        # A stable sort groups repeats of a leaf in write order; the last
        # of each group is the write that stands.
        order = indices.argsort(kind="stable")
        grouped = indices[order]
        # Both comparisons below fill all but the last flag, which stays.
        last = np.empty(grouped.size, dtype=bool)
        last[-1] = True
        np.not_equal(grouped[1:], grouped[:-1], out=last[:-1])
        self._leaves[grouped[last]] = values[order[last]]
        # Sorted leaves keep a block's entries adjacent: one per run.
        blocks = grouped // BLOCK
        np.not_equal(blocks[1:], blocks[:-1], out=last[:-1])
        touched = blocks[last]
        self._stale = min(self._stale, int(touched[0]), self._written)
        self._written = max(self._written, int(touched[-1]) + 1)
        self._grow_keys()
        sums = np.add.accumulate(self._rows[touched], axis=1)
        self._inner[touched] = sums
        self._totals[touched] = sums[:, -1]

    def sample(self, u: float) -> int:
        """Leaf index whose prefix-sum interval contains ``u``.

        Returns the unique i with prefix(i) <= u < prefix(i + 1) where
        prefix sums run over leaves in index order.
        """
        return int(self.sample_batch(np.array([u], dtype=np.float64))[0])

    def sample_batch(self, us: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sample` over an array of offsets."""
        total = self.total
        if total <= 0.0:
            raise NotReadyError("cannot sample from a tree with zero total mass")
        us = np.asarray(us, dtype=np.float64)
        if us.size and not (us.min() >= 0.0 and us.max() < total):
            raise ValueError("all offsets must lie in [0, total)")
        return self._search(us)

    def _search(self, us: np.ndarray) -> np.ndarray:
        """The leaves of offsets ``us`` in [0, total), unchecked, with the
        prefix up to date. Both searches are monotone in the offset, so
        non-decreasing offsets give non-decreasing leaves."""
        written = self._written
        # The last block whose prefix is <= u; it has positive mass.
        blocks = self._prefix[1 : written + 1].searchsorted(us, side="right")
        queries = np.empty(us.shape, dtype=np.complex128)
        queries.real = blocks
        # Rounding can carry the offset within the block up to the block
        # total; stop it just below, on the block's last positive leaf.
        below_total = np.nextafter(self._totals[blocks], 0.0)
        np.minimum(us - self._prefix[blocks], below_total, out=queries.imag)
        return self._keys[: written * BLOCK].searchsorted(queries, side="right")

    def _refresh(self) -> None:
        """Bring the total, and the block prefix up to the highest
        written block, up to date."""
        block, end = self._stale, self._written
        if block >= end:
            return
        prefix = self._prefix[block : end + 1]
        prefix[1:] = self._totals[block:end]
        np.add.accumulate(prefix, out=prefix)
        self._nodes[0] = prefix[-1]
        self._stale = len(self._totals)

    def _checked(self, indices) -> np.ndarray:
        """``indices`` as a flat integer array, after a range check."""
        indices = np.asarray(indices).ravel()
        if indices.size == 0:
            return indices.astype(np.int64)
        if indices.dtype.kind not in "iu":
            raise IndexError(f"leaf indices must be integers, got {indices.dtype}")
        if np.minimum.reduce(indices) < 0 or np.maximum.reduce(indices) >= self.leaf_capacity:
            raise IndexError(
                f"leaves {indices.min()}..{indices.max()} out of range for "
                f"capacity {self.leaf_capacity}"
            )
        return indices


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
    """Couples a priority store to buffer slots for proportional replay.

    New transitions are inserted at the largest raw priority seen so
    far, which guarantees each is sampled at least once before its
    priority is refined by an observed TD error.
    """

    def __init__(self, capacity: int, config: PerConfig | None = None) -> None:
        self.config = config or PerConfig()
        self.tree = SumTree(capacity)
        self._max_raw = self.config.max_priority
        # 0.0, 1.0, ... up to the last batch size drawn: segment numbers.
        self._ramp = np.arange(0.0)

    def insert(self, index: int) -> None:
        """Register slot ``index`` as freshly written.

        Any priority of an evicted transition previously in the slot is
        fully replaced.
        """
        self.tree.set(index, self._max_raw ** self.config.alpha)

    def insert_many(self, indices) -> None:
        """:meth:`insert` of every slot in ``indices``, in one write."""
        indices = np.asarray(indices)
        self.tree.set_many(indices, np.full(indices.size, self._max_raw ** self.config.alpha))

    def update_priorities(self, indices, td_errors) -> None:
        """Refresh priorities from TD errors: raw priority |delta| + epsilon.

        Raises NumericalError on a non-finite TD error, ValueError when
        the lengths differ and IndexError on a slot out of range, and
        then writes nothing. The running max of the raw priorities is
        also the finite check: NaN and inf carry through a max. The
        priorities, (|delta| + epsilon) ** alpha, are then finite and
        > 0, so the store writes them unchecked.
        """
        td_errors = np.asarray(td_errors, dtype=np.float64)
        raw = np.abs(td_errors.ravel())
        raw += self.config.epsilon
        top = float(np.maximum.reduce(raw, initial=self._max_raw))
        if not math.isfinite(top):
            raise NumericalError("TD errors must be finite")
        if len(indices) != td_errors.size:
            raise ValueError("indices and td_errors must have equal length")
        self.tree._write(self.tree._checked(indices), raw**self.config.alpha)
        self._max_raw = top

    def sample(
        self, buffer: ReplayBuffer, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stratified proportional draw of ``batch_size`` slots; returns
        ``(indices, weights)``.

        The total mass is split into batch_size equal segments with one
        uniform draw per segment. Weights are (N * P(i)) ** -beta,
        normalized by the batch maximum. Every slot returned is filled:
        a slot given a priority before ``buffer`` filled it raises
        IndexError when drawn.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        filled = len(buffer)
        if filled == 0:
            raise NotReadyError("cannot sample from an empty buffer")
        tree = self.tree
        total = tree.total
        if total <= 0.0:
            raise NotReadyError("cannot sample from a tree with zero total mass")
        if self._ramp.size != batch_size:
            self._ramp = np.arange(float(batch_size))
        segment = total / batch_size
        offsets = rng.random(batch_size)
        offsets += self._ramp
        offsets *= segment
        # Guard the upper edge: floating roundup may land exactly on total.
        np.minimum(offsets, math.nextafter(total, 0.0), out=offsets)
        # The offsets rise with their segment and the leaves found for
        # them with the offsets, so each range check reads the two ends.
        if not (offsets[0] >= 0.0 and offsets[-1] < total):
            raise ValueError("all offsets must lie in [0, total)")
        indices = tree._search(offsets)
        if not (indices[0] >= 0 and indices[-1] < filled):
            raise IndexError(
                f"leaves {indices[0]}..{indices[-1]} are not among the {filled} filled"
            )
        weights = tree._leaves[indices]
        weights /= total
        weights *= filled
        weights **= -self.config.beta
        weights /= np.maximum.reduce(weights)
        return indices, weights
