"""Model test: ``ReplayStack`` against a pure-Python replay model.

A hypothesis state machine drives one stack, uniform, combined (CER),
prioritized (PER) or both, with plain or goal-augmented (wider) states,
through ``append``, ``extend``, ``update_priorities`` and ``sample``.
Capacities run from 1 to 130, so the ring wraps and the PER store
crosses its 64-leaf block boundary and grows its search keys. The model
keeps the ring as a list of rows, the priority of every slot as a list
of floats and the running max priority, and it recomputes a PER draw
from those alone: block sums and their prefix added left to right, as
the store adds them, one offset per segment, and a scan for the leaf.

``ReplayStack.sample`` gathers rows with no check of its own, trusting
each sampler to return filled slots, and PER writes priorities through
an unchecked store core. So besides the model's checks, every sampled
batch must equal, bit for bit, what the checked ``ReplayBuffer.gather``
returns for its slots, and a slot that ``update_priorities`` gave a
priority before any row filled it must raise IndexError when drawn.
"""

from __future__ import annotations

import bisect
import copy
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from replaykit.errors import NotReadyError
from replaykit.harness import ReplayStack
from replaykit.hindsight import augment_observation
from replaykit.prioritized import BLOCK, PerConfig

OBS_DIM = 2
GOAL = np.array([0.25, -1.5])
BATCH = ("indices", "states", "actions", "rewards", "next_states", "dones", "weights")


class ReplayModel(RuleBasedStateMachine):
    """One ``ReplayStack`` and its model, compared after every step."""

    @initialize(seed=st.integers(0, 2**32 - 1))
    def start(self, seed) -> None:
        # Each rule draws its sizes from a generator seeded by hypothesis,
        # so they spread over their whole range rather than bunch at the
        # small values hypothesis tries first.
        rng = np.random.default_rng(seed)
        self.capacity = capacity = int(rng.integers(1, 131))
        self.combined, self.prioritized = bool(rng.random() < 0.5), bool(rng.random() < 0.75)
        self.goal = GOAL if rng.random() < 0.5 else None
        self.discrete = bool(rng.random() < 0.5)
        self.config = PerConfig(
            alpha=float(rng.choice([0.6, 1.0, 0.5, 0.0])),
            beta=float(rng.choice([0.4, 1.0, 0.0])),
            max_priority=float(rng.choice([1.0, 0.3])),
        )
        self.stack = ReplayStack(
            capacity, self.combined, self.config if self.prioritized else None, rng
        )
        self.rows: list[tuple | None] = [None] * capacity
        self.cursor = self.count = 0
        self.priorities = [0.0] * capacity
        self.max_raw = self.config.max_priority

    # ----- the model -------------------------------------------------

    def _random_rows(self, rng: np.random.Generator, n: int) -> list[tuple]:
        """n transitions (state, action, reward, next_state, done)."""
        rows = []
        for _ in range(n):
            state = augment_observation(rng.normal(size=OBS_DIM), self.goal)
            next_state = augment_observation(rng.normal(size=OBS_DIM), self.goal)
            action = int(rng.integers(3)) if self.discrete else rng.uniform(-2.0, 2.0, size=1)
            rows.append((state, action, float(rng.normal()), next_state, bool(rng.random() < 0.3)))
        return rows

    def _model_append(self, row: tuple) -> int:
        slot = self.cursor
        self.rows[slot] = row
        self.cursor = (slot + 1) % self.capacity
        self.count = min(self.count + 1, self.capacity)
        if self.prioritized:
            self.priorities[slot] = self.max_raw**self.config.alpha
        return slot

    def _model_total(self) -> tuple[float, list[float], list[list[float]]]:
        """The total, block totals and in-block inclusive prefixes, each
        added left to right."""
        inner = []
        for start in range(0, self.capacity, BLOCK):
            running, sums = 0.0, []
            for value in self.priorities[start : start + BLOCK]:
                running += value
                sums.append(running)
            inner.append(sums)
        totals = [sums[-1] for sums in inner]
        total = 0.0
        for block_total in totals:
            total += block_total
        return total, totals, inner

    def _model_per(self, rng: np.random.Generator, n: int) -> list[int] | None:
        """The slots PER draws, or None when it draws from an empty
        store."""
        total, totals, inner = self._model_total()
        if total <= 0.0:
            return None
        segment = total / n
        draws = rng.random(n).tolist()
        slots = []
        for i, draw in enumerate(draws):
            u = min((draw + i) * segment, math.nextafter(total, 0.0))
            # The block: the first whose inclusive prefix exceeds u.
            block, before = 0, 0.0
            while before + totals[block] <= u:
                before += totals[block]
                block += 1
            within = min(u - before, math.nextafter(totals[block], 0.0))
            slots.append(block * BLOCK + bisect.bisect_right(inner[block], within))
        return slots

    def _model_sample(self, rng: np.random.Generator, n: int):
        """(slots, fixed weights) the stack should draw, where a weight
        of None is a PER weight; None for an empty PER store."""
        first: list[int] = []
        if self.combined:
            first, n = [(self.cursor - 1) % self.capacity], n - 1
        if n == 0:
            return first, [1.0] * len(first)
        if self.prioritized:
            rest = self._model_per(rng, n)
            if rest is None:
                return None
            return first + rest, [1.0] * len(first) + [None] * n
        rest = rng.integers(0, self.count, size=n).tolist()
        return first + rest, [1.0] * (len(first) + n)

    # ----- rules -----------------------------------------------------

    @rule(seed=st.integers(0, 2**32 - 1))
    def append(self, seed) -> None:
        [row] = self._random_rows(np.random.default_rng(seed), 1)
        assert self.stack.append(*row) == self._model_append(row)

    @rule(seed=st.integers(0, 2**32 - 1))
    def extend(self, seed) -> None:
        rng = np.random.default_rng(seed)
        # Mostly a few rows, so the ring often has unfilled slots; now and
        # then more than the capacity, so it wraps within one write.
        most = 2 * self.capacity + 3 if rng.random() < 0.3 else 9
        rows = self._random_rows(rng, int(rng.integers(1, most)))
        columns = [np.array([row[k] for row in rows]) for k in range(5)]
        slots = self.stack.extend(*columns)
        expected = [self._model_append(row) for row in rows]
        assert slots.tolist() == expected[-self.capacity :]

    @precondition(lambda self: self.prioritized and self.count > 0)
    @rule(seed=st.integers(0, 2**32 - 1))
    def update_priorities(self, seed) -> None:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 41))
        # Repeats are common: the write that stands is the last.
        slots = rng.integers(0, self.count, size=n)
        errors = rng.normal(scale=3.0, size=n)
        errors[rng.random(n) < 0.2] = 0.0
        if n and self.count < self.capacity and rng.random() < 0.5:
            # A priority, often a large one, for a slot no row has filled.
            slots[-1] = rng.integers(self.count, self.capacity)
            errors[-1] = rng.choice([1e3, 1.0])
        self.stack.update_priorities(slots, errors)
        written = self.stack.per.tree.leaves(np.arange(self.capacity))
        for slot, error in zip(slots.tolist(), errors.tolist()):
            raw = abs(error) + self.config.epsilon
            self.max_raw = max(self.max_raw, raw)
            self.priorities[slot] = raw**self.config.alpha
        for slot in set(slots.tolist()):
            # numpy's vector power may round differently from Python's
            # in the last bit; the model then keeps the store's value.
            assert written[slot] == pytest.approx(self.priorities[slot], rel=1e-14)
            self.priorities[slot] = float(written[slot])

    @rule(seed=st.integers(0, 2**32 - 1))
    def sample(self, seed) -> None:
        batch_size = int(np.random.default_rng(seed).integers(1, 41))
        expected = None
        if self.count:
            expected = self._model_sample(copy.deepcopy(self.stack.rng), batch_size)
        if expected is None:
            with pytest.raises(NotReadyError):
                self.stack.sample(batch_size)
            return
        slots, weights = expected
        if max(slots) >= self.count:
            # Drawn before any row filled it.
            with pytest.raises(IndexError):
                self.stack.sample(batch_size)
            return
        batch = self.stack.sample(batch_size)
        assert batch.indices.tolist() == slots
        # Every sampled batch is what the checked gather gives its slots.
        checked = self.stack.buffer.gather(batch.indices, batch.weights)
        for name in BATCH:
            got, want = getattr(batch, name), getattr(checked, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        for i, slot in enumerate(slots):
            state, action, reward, next_state, done = self.rows[slot]
            assert batch.states[i].tobytes() == state.tobytes()
            assert batch.next_states[i].tobytes() == next_state.tobytes()
            assert np.array_equal(batch.actions[i], action)
            assert batch.rewards[i] == reward and batch.dones[i] == float(done)
        # CER's newest slot, and every uniform draw, weigh 1.
        fixed = [i for i, weight in enumerate(weights) if weight is not None]
        assert [batch.weights[i] for i in fixed] == [1.0] * len(fixed)
        per = [i for i, weight in enumerate(weights) if weight is None]
        if per:
            total = self._model_total()[0]
            drawn = [self.priorities[slots[i]] for i in per]
            # PER never draws a slot of zero priority.
            assert min(drawn) > 0.0
            want = [(self.count * p / total) ** -self.config.beta for p in drawn]
            top = max(want)
            assert [batch.weights[i] for i in per] == pytest.approx(
                [w / top for w in want], rel=1e-12
            )
            assert max(batch.weights[i] for i in per) == 1.0
        assert batch.weights.max() <= 1.0

    # ----- invariants -----------------------------------------------

    @invariant()
    def ring_follows_fifo_order(self) -> None:
        if not hasattr(self, "stack"):
            return
        buffer = self.stack.buffer
        assert len(self.stack) == self.count
        if self.count == 0:
            return
        assert buffer.newest == (self.cursor - 1) % self.capacity
        filled = np.arange(self.count)
        rows = buffer.gather(filled)
        for slot in range(self.count):
            state, action, reward, next_state, done = self.rows[slot]
            assert rows.states[slot].tobytes() == state.tobytes()
            assert rows.next_states[slot].tobytes() == next_state.tobytes()
            assert np.array_equal(rows.actions[slot], action)
            assert rows.rewards[slot] == reward and rows.dones[slot] == float(done)

    @invariant()
    def priorities_follow_the_model(self) -> None:
        if not (hasattr(self, "stack") and self.prioritized):
            return
        sampler = self.stack.per
        # A fresh row enters at the running max priority, raised to alpha.
        leaves = sampler.tree.leaves(np.arange(self.capacity))
        assert leaves.tolist() == self.priorities
        assert sampler._max_raw == self.max_raw
        assert sampler.tree.total == self._model_total()[0]


@pytest.mark.parametrize("combined", [False, True])
def test_slot_with_a_priority_but_no_row_raises_when_drawn(combined) -> None:
    stack = ReplayStack(8, combined, PerConfig(alpha=1.0), np.random.default_rng(0))
    for tag in (0.0, 1.0):
        stack.append(np.full(2, tag), 0, tag, np.full(2, tag), False)
    stack.update_priorities([1, 5], [0.0, 1e6])
    with pytest.raises(IndexError):
        stack.sample(4)


TestReplayModel = ReplayModel.TestCase
TestReplayModel.settings = settings(
    derandomize=True,
    max_examples=100,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
