from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from replaykit.errors import ConfigurationError, NotReadyError, NumericalError
from replaykit import prioritized
from replaykit.prioritized import BLOCK, PerConfig, PrioritizedSampler, SumTree
from replaykit.replay import ReplayBuffer


def linear_scan_sample(leaves: np.ndarray, u: float) -> int:
    """Oracle: first index whose cumulative sum exceeds u."""
    running = 0.0
    for i, value in enumerate(leaves):
        running += value
        if u < running:
            return i
    raise AssertionError(f"u={u} not within total {running}")


def filled_buffer(n: int, capacity: int | None = None) -> ReplayBuffer:
    buf = ReplayBuffer(capacity or n)
    for i in range(n):
        state = np.array([float(i)])
        buf.append(state, 0, float(i), state + 1.0, False)
    return buf


def test_tree_total_and_update() -> None:
    tree = SumTree(4)
    tree.set_many(range(4), [1.0, 2.0, 3.0, 4.0])
    assert tree.total == pytest.approx(10.0)
    tree.set_many([1], [6.0])
    assert tree.total == pytest.approx(14.0)
    assert tree.leaves([3, 1, 3]).tolist() == [4.0, 6.0, 4.0]


def test_tree_rejects_bad_values_and_indices() -> None:
    tree = SumTree(4)
    with pytest.raises(ValueError):
        tree.set_many([0], [-1.0])
    with pytest.raises(NumericalError):
        tree.set_many([0], [float("nan")])
    with pytest.raises(IndexError):
        tree.set_many([4], [1.0])
    with pytest.raises(IndexError):
        tree.leaves([-1])
    with pytest.raises(IndexError):
        tree.leaves([0, -1])
    with pytest.raises(IndexError):
        tree.leaves([4])
    with pytest.raises(ConfigurationError):
        SumTree(0)


def test_tree_sample_prefix_intervals() -> None:
    tree = SumTree(4)
    tree.set_many(range(4), [1.0, 2.0, 3.0, 4.0])
    assert tree.sample_batch([0.5, 9.99]).tolist() == [0, 3]
    # boundaries belong to the right interval
    assert tree.sample_batch([1.0, 3.0]).tolist() == [1, 2]


def test_tree_sample_skips_zero_leaves() -> None:
    tree = SumTree(4)
    tree.set_many([2], [5.0])
    assert tree.sample_batch(np.linspace(0.0, 4.999, 23)).tolist() == [2] * 23


def test_tree_sample_domain_errors() -> None:
    tree = SumTree(2)
    with pytest.raises(NotReadyError):
        tree.sample_batch([0.0])
    tree.set_many([0], [2.0])
    with pytest.raises(ValueError):
        tree.sample_batch([-0.1])
    with pytest.raises(ValueError):
        tree.sample_batch([2.0])
    with pytest.raises(ValueError):
        tree.sample_batch([0.5, float("nan")])


def test_tree_matches_linear_scan_oracle() -> None:
    rng = np.random.default_rng(11)
    for _ in range(300):
        capacity = int(rng.integers(1, 40))
        leaves = rng.uniform(0.0, 5.0, size=capacity)
        leaves[rng.random(capacity) < 0.3] = 0.0
        if leaves.sum() <= 0.0:
            leaves[int(rng.integers(capacity))] = 1.0
        tree = SumTree(capacity)
        tree.set_many(range(capacity), leaves)
        total = leaves.sum()
        assert tree.total == pytest.approx(total, rel=1e-12)
        us = rng.uniform(0.0, total * (1.0 - 1e-12), size=12)
        assert tree.sample_batch(us).tolist() == [linear_scan_sample(leaves, u) for u in us]


def test_tree_interleaved_ops_stay_consistent() -> None:
    """Random set/sample sequences against a flat-array mirror."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        capacity = int(rng.integers(2, 33))
        tree = SumTree(capacity)
        mirror = np.zeros(capacity)
        for _ in range(rng.integers(5, 60)):
            if rng.random() < 0.7 or mirror.sum() == 0.0:
                index = int(rng.integers(capacity))
                value = float(rng.uniform(0.0, 10.0))
                tree.set_many([index], [value])
                mirror[index] = value
            else:
                u = float(rng.uniform(0.0, mirror.sum() * (1.0 - 1e-12)))
                assert tree.sample_batch([u])[0] == linear_scan_sample(mirror, u)
            assert tree.total == pytest.approx(mirror.sum(), rel=1e-9, abs=1e-12)
        assert tree.leaves(range(capacity)) == pytest.approx(mirror)


def test_tree_sample_batch_agrees_with_scalar() -> None:
    # A draw does not depend on the other offsets in its batch.
    rng = np.random.default_rng(13)
    tree = SumTree(17)
    tree.set_many(range(17), rng.uniform(0.0, 3.0, size=17))
    us = rng.uniform(0.0, tree.total * (1.0 - 1e-12), size=200)
    batch = tree.sample_batch(us)
    assert [tree.sample_batch([u])[0] for u in us] == list(batch)


def test_tree_sample_batch_at_exact_prefix_boundaries() -> None:
    # Integer leaves keep every prefix sum exact, so u == prefix(i) is hit
    # exactly; zero leaves make some boundaries shared by several leaves.
    rng = np.random.default_rng(14)
    for capacity in (1, 2, 3, 5, 8, 13, 33):
        leaves = rng.integers(0, 4, size=capacity).astype(float)
        leaves[-1] += 1.0
        tree = SumTree(capacity)
        tree.set_many(range(capacity), leaves)
        prefixes = np.concatenate(([0.0], np.cumsum(leaves)[:-1]))
        expected = [linear_scan_sample(leaves, float(u)) for u in prefixes]
        assert tree.sample_batch(prefixes).tolist() == expected
        assert [tree.sample_batch([u])[0] for u in prefixes] == expected


def boundary_leaves(capacity: int, rng: np.random.Generator) -> np.ndarray:
    """Integer leaves, about a third of them zero; from capacity 129 on,
    the first and the last 64-leaf block are all zero too."""
    leaves = rng.integers(0, 4, size=capacity).astype(float)
    leaves[rng.random(capacity) < 0.3] = 0.0
    if capacity > 128:
        leaves[:64] = 0.0
        leaves[64 * ((capacity - 1) // 64):] = 0.0
    if leaves.sum() == 0.0:
        leaves[capacity // 2] = 1.0
    return leaves


@pytest.mark.parametrize("start", [1, 101, 201])
def test_tree_matches_oracle_across_block_boundaries(start) -> None:
    # Integer leaves keep every prefix sum exact, so offsets land exactly
    # on leaf and block boundaries (every 64th prefix), next to them,
    # inside runs of zero leaves and just below the total.
    rng = np.random.default_rng(15 + start)
    capacities = list(range(start, start + 100)) + ([1000] if start == 201 else [])
    for capacity in capacities:
        leaves = boundary_leaves(capacity, rng)
        tree = SumTree(capacity)
        # Stale integer values first, so every final value is an overwrite.
        tree.set_many(range(capacity), rng.integers(0, 9, size=capacity).astype(float))
        if capacity % 2:
            tree.set_many(range(capacity), leaves)
        else:
            for i, value in enumerate(leaves):
                tree.set_many([i], [value])
        total = float(leaves.sum())
        assert tree.total == total
        prefixes = np.concatenate(([0.0], np.cumsum(leaves)[:-1]))
        chosen = np.unique(np.concatenate((
            np.arange(0, capacity, 64),
            np.arange(63, capacity, 64),
            np.arange(65, capacity, 64),
            rng.integers(0, capacity, size=12),
        )))
        us = np.concatenate((
            prefixes[chosen],
            prefixes[chosen] + 0.5,
            np.nextafter(prefixes[chosen], np.inf),
            [np.nextafter(total, 0.0)],
        ))
        us = us[us < total]
        drawn = tree.sample_batch(us)
        assert drawn.tolist() == [linear_scan_sample(leaves, float(u)) for u in us]
        assert np.all(leaves[drawn] > 0.0)
        assert tree.sample_batch(us[-1:])[0] == drawn[-1]


@st.composite
def tree_writes(draw):
    """A capacity (not always a power of two) and a few batches of
    (index, value) writes, with repeated leaves and zero values."""
    capacity = draw(st.integers(1, 70))
    write = st.tuples(
        st.integers(0, capacity - 1),
        st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    )
    return capacity, draw(st.lists(st.lists(write, max_size=40), max_size=4))


def scalar_and_batched(capacity: int, batches) -> tuple[SumTree, SumTree]:
    """Two stores given the same writes: one pair at a time through the
    scalar core that ``PrioritizedSampler.insert`` writes through, and
    one batch at a time through ``set_many``."""
    scalar, batched = SumTree(capacity), SumTree(capacity)
    for batch in batches:
        for index, value in batch:
            scalar._write_one(index, value)
        batched.set_many([i for i, _ in batch], [v for _, v in batch])
    return scalar, batched


@settings(max_examples=300, deadline=None)
@given(tree_writes())
@example((5, [[(3, 2.0), (3, 0.0), (1, 1.5), (3, 7.25)], [(3, 1.0), (3, 1.0)]]))
def test_set_many_bitwise_equals_scalar_sets_in_order(case) -> None:
    capacity, batches = case
    scalar, batched = scalar_and_batched(capacity, batches)
    assert batched.nodes.tobytes() == scalar.nodes.tobytes()


def test_set_many_bitwise_equals_scalar_sets_across_blocks() -> None:
    # Batches that repeat leaves and span several 64-leaf blocks, so each
    # touched block, the first and the last included, must be recomputed.
    rng = np.random.default_rng(16)
    for capacity in (65, 128, 200, 1000):
        scalar, batched = SumTree(capacity), SumTree(capacity)
        for _ in range(60):
            pool = rng.integers(0, capacity, size=int(rng.integers(1, 12)))
            indices = rng.choice(pool, size=int(rng.integers(1, 40)))
            values = rng.uniform(0.0, 10.0, size=indices.size)
            values[rng.random(indices.size) < 0.2] = 0.0
            for index, value in zip(indices.tolist(), values.tolist()):
                scalar._write_one(index, value)
            batched.set_many(indices, values)
            assert batched.nodes.tobytes() == scalar.nodes.tobytes()


@settings(max_examples=200, deadline=None)
@given(tree_writes(), st.data())
def test_set_many_rejects_bad_entry_and_writes_nothing(case, data) -> None:
    capacity, batches = case
    _, tree = scalar_and_batched(capacity, batches)
    before = tree.nodes.tobytes()
    n = data.draw(st.integers(1, 20))
    indices = data.draw(st.lists(st.integers(0, capacity - 1), min_size=n, max_size=n))
    values = data.draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n))
    bad = data.draw(st.integers(0, n - 1))
    fault = data.draw(st.sampled_from(["index", "negative", "nan"]))
    if fault == "index":
        indices[bad] = data.draw(st.sampled_from([-1, capacity]))
        error = IndexError
    elif fault == "negative":
        values[bad] = -data.draw(st.floats(1e-300, 1e3))
        error = ValueError
    else:
        values[bad] = float("nan")
        error = NumericalError
    with pytest.raises(error):
        tree.set_many(indices, values)
    assert tree.nodes.tobytes() == before


def test_per_config_validation() -> None:
    with pytest.raises(ConfigurationError):
        PerConfig(alpha=1.5)
    with pytest.raises(ConfigurationError):
        PerConfig(beta=-0.1)
    with pytest.raises(ConfigurationError):
        PerConfig(epsilon=0.0)
    with pytest.raises(ConfigurationError):
        PerConfig(max_priority=0.0)


def test_insert_uses_initial_then_running_max_priority() -> None:
    sampler = PrioritizedSampler(8, PerConfig(alpha=1.0, epsilon=0.01))
    sampler.insert(0)
    assert sampler.tree.leaves([0])[0] == pytest.approx(1.0)  # max_priority default
    sampler.update_priorities([0], [5.0])
    assert sampler.tree.leaves([0])[0] == pytest.approx(5.01)
    sampler.insert(1)
    assert sampler.tree.leaves([1])[0] == pytest.approx(5.01)
    # overwriting an evicted slot replaces the old priority entirely
    sampler.update_priorities([1], [0.0])
    assert sampler.tree.leaves([1])[0] == pytest.approx(0.01)
    sampler.insert(1)
    assert sampler.tree.leaves([1])[0] == pytest.approx(5.01)


@pytest.mark.parametrize("slot", [-1, 8])
def test_insert_rejects_a_slot_out_of_range_and_writes_nothing(slot) -> None:
    sampler = PrioritizedSampler(8)
    sampler.insert_many([0, 5])
    before = sampler.tree.nodes.tobytes()
    with pytest.raises(IndexError, match=f"leaf {slot} out of range for capacity 8"):
        sampler.insert(slot)
    with pytest.raises(IndexError):
        sampler.insert_many([1, slot])
    assert sampler.tree.nodes.tobytes() == before


def test_update_priorities_floor_and_alpha() -> None:
    sampler = PrioritizedSampler(4, PerConfig(alpha=0.5, epsilon=0.01))
    sampler.insert(0)
    sampler.update_priorities([0], [0.0])
    assert sampler.tree.leaves([0])[0] == pytest.approx(0.01**0.5)
    sampler.update_priorities([0], [-2.0])
    assert sampler.tree.leaves([0])[0] == pytest.approx(2.01**0.5)
    with pytest.raises(NumericalError):
        sampler.update_priorities([0], [float("nan")])
    with pytest.raises(ValueError):
        sampler.update_priorities([0, 1], [1.0])


def sampled_frequencies(
    priorities: list[float], alpha: float, draws: int, batch_size: int = 50
) -> np.ndarray:
    config = PerConfig(alpha=alpha, epsilon=0.01)
    buf = filled_buffer(len(priorities))
    sampler = PrioritizedSampler(len(priorities), config)
    for i in range(len(priorities)):
        sampler.insert(i)
    # raw = |delta| + epsilon, so subtract the floor to set exact raws
    sampler.update_priorities(
        range(len(priorities)), [p - config.epsilon for p in priorities]
    )
    rng = np.random.default_rng(21)
    counts = np.zeros(len(priorities))
    for _ in range(draws // batch_size):
        indices, _ = sampler.sample(buf, batch_size, rng)
        counts += np.bincount(indices, minlength=len(priorities))
    return counts / counts.sum()


def test_proportional_frequencies_alpha_one() -> None:
    freqs = sampled_frequencies([3.0, 1.0], alpha=1.0, draws=100_000)
    assert freqs[0] == pytest.approx(0.75, abs=0.005)
    assert freqs[1] == pytest.approx(0.25, abs=0.005)


def test_alpha_half_square_root_weighting() -> None:
    # priorities [4, 1] at alpha 0.5 give sampling masses 2 and 1
    freqs = sampled_frequencies([4.0, 1.0], alpha=0.5, draws=100_000)
    assert freqs[0] == pytest.approx(2.0 / 3.0, abs=0.005)
    assert freqs[1] == pytest.approx(1.0 / 3.0, abs=0.005)


def test_alpha_zero_is_uniform() -> None:
    config = PerConfig(alpha=0.0, epsilon=0.01)
    n = 16
    buf = filled_buffer(n)
    sampler = PrioritizedSampler(n, config)
    for i in range(n):
        sampler.insert(i)
    sampler.update_priorities(range(n), np.linspace(0.0, 50.0, n))
    rng = np.random.default_rng(22)
    counts = np.zeros(n)
    for _ in range(1_000):
        indices, _ = sampler.sample(buf, 50, rng)
        counts += np.bincount(indices, minlength=n)
    assert stats.chisquare(counts).pvalue > 0.01


def test_weights_in_unit_interval_with_max_one() -> None:
    buf = filled_buffer(32)
    sampler = PrioritizedSampler(32, PerConfig(alpha=0.8, beta=0.4))
    for i in range(32):
        sampler.insert(i)
    rng = np.random.default_rng(23)
    sampler.update_priorities(range(32), rng.uniform(0.0, 4.0, size=32))
    for _ in range(20):
        indices, weights = sampler.sample(buf, 16, rng)
        assert len(indices) == len(weights) == 16
        assert np.all(weights > 0.0)
        assert np.all(weights <= 1.0)
        assert weights.max() == pytest.approx(1.0)


def test_beta_zero_gives_unit_weights() -> None:
    buf = filled_buffer(8)
    sampler = PrioritizedSampler(8, PerConfig(alpha=1.0, beta=0.0))
    for i in range(8):
        sampler.insert(i)
    rng = np.random.default_rng(24)
    sampler.update_priorities(range(8), rng.uniform(0.0, 4.0, size=8))
    _, weights = sampler.sample(buf, 8, rng)
    assert all(w == pytest.approx(1.0) for w in weights)


def test_weight_formula_against_direct_computation() -> None:
    config = PerConfig(alpha=1.0, beta=0.4, epsilon=0.01)
    buf = filled_buffer(4)
    sampler = PrioritizedSampler(4, config)
    for i in range(4):
        sampler.insert(i)
    deltas = [0.99, 1.99, 2.99, 3.99]  # raws 1, 2, 3, 4
    sampler.update_priorities(range(4), deltas)
    rng = np.random.default_rng(25)
    indices, weights = sampler.sample(buf, 64, rng)
    total = 10.0
    n = 4
    raw_weights = {i: (n * ((i + 1.0) / total)) ** -config.beta for i in range(4)}
    norm = max(raw_weights[i] for i in indices)
    for index, weight in zip(indices, weights):
        assert weight == pytest.approx(raw_weights[index] / norm)


def test_stratified_draws_cover_segments() -> None:
    # with batch_size == leaf count and equal priorities, stratification
    # guarantees exactly one draw per leaf
    buf = filled_buffer(8)
    sampler = PrioritizedSampler(8, PerConfig(alpha=1.0))
    for i in range(8):
        sampler.insert(i)
    rng = np.random.default_rng(26)
    indices, _ = sampler.sample(buf, 8, rng)
    assert sorted(indices.tolist()) == list(range(8))


def check_copied_tree_tracks_its_own_writes(make_copy) -> None:
    tree = SumTree(200)
    tree.set_many(range(150), np.ones(150))
    twin = make_copy(tree)
    for t in (tree, twin):
        t.set_many([10], [50.0])
        t.set_many([3, 130], [2.0, 0.0])
    assert twin.total == tree.total == 199.0
    assert twin.nodes.tobytes() == tree.nodes.tobytes()
    offsets = np.linspace(0.0, tree.total, 200, endpoint=False)
    assert np.array_equal(twin.sample_batch(offsets), tree.sample_batch(offsets))
    twin.set_many([0], [7.0])
    assert tree.leaves([0])[0] == 1.0 and tree.total == 199.0


def test_deep_copied_tree_tracks_its_own_writes() -> None:
    check_copied_tree_tracks_its_own_writes(copy.deepcopy)


def test_pickled_tree_tracks_its_own_writes() -> None:
    check_copied_tree_tracks_its_own_writes(lambda tree: pickle.loads(pickle.dumps(tree)))


class FullRefreshTree(SumTree):
    """The store as it was before its work and memory were bounded by the
    written blocks: the search keys of every block are built up front,
    the block prefix is re-accumulated from the first changed block to
    the end of the store, and both searches run over all of it. The
    reference for the bounded store."""

    def __init__(self, leaf_capacity: int) -> None:
        super().__init__(leaf_capacity)
        blocks = len(self._totals)
        self._keys = np.repeat(np.arange(blocks, dtype=np.complex128), BLOCK)
        self._bind_views()

    @property
    def nodes(self) -> np.ndarray:
        self._refresh()
        view = self._nodes.view()
        view.flags.writeable = False
        return view

    def _refresh(self) -> None:
        block = self._stale
        if block == len(self._totals):
            return
        prefix = self._prefix[block:]
        prefix[1:] = self._totals[block:]
        np.add.accumulate(prefix, out=prefix)
        self._nodes[0] = prefix[-1]
        self._stale = len(self._totals)

    def _search(self, us: np.ndarray) -> np.ndarray:
        blocks = self._prefix[1:].searchsorted(us, side="right")
        queries = np.empty(us.shape, dtype=np.complex128)
        queries.real = blocks
        below_total = np.nextafter(self._totals[blocks], 0.0)
        np.minimum(us - self._prefix[blocks], below_total, out=queries.imag)
        return self._keys.searchsorted(queries, side="right")


def reference_per_sample(sampler, buffer, batch_size, rng):
    """``PrioritizedSampler.sample`` as first written, through the
    store's fully checked ``sample_batch`` and ``leaves``."""
    total = sampler.tree.total
    segment = total / batch_size
    offsets = (np.arange(batch_size) + rng.random(batch_size)) * segment
    offsets = np.minimum(offsets, np.nextafter(total, 0.0))
    indices = sampler.tree.sample_batch(offsets)
    probs = sampler.tree.leaves(indices) / total
    weights = (len(buffer) * probs) ** -sampler.config.beta
    weights /= weights.max()
    return indices, weights


# Pendulum's store: 100,000 slots of which at most 3,200 are written.
PENDULUM_SLOTS, PENDULUM_ROWS = 100_000, 3_200
_BOUNDED_OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "insert_many", "update", "scatter"]),
              st.integers(1, 400), st.booleans()),
    min_size=1, max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(ops=_BOUNDED_OPS, seed=st.integers(0, 2**32 - 1), copy_at=st.integers(0, 30))
def test_store_bounded_by_written_blocks_matches_full_refresh(ops, seed, copy_at) -> None:
    rng = np.random.default_rng(seed)
    config = PerConfig()
    bounded = PrioritizedSampler(PENDULUM_SLOTS, config)
    full = PrioritizedSampler(PENDULUM_SLOTS, config)
    full.tree = FullRefreshTree(PENDULUM_SLOTS)
    samplers = [bounded, full]
    twins = []  # a deep copy and a pickle round trip of bounded, once taken
    # Every slot may hold a priority, so the buffer fills them all; only
    # its length enters the weights.
    buffer = ReplayBuffer(PENDULUM_SLOTS)
    column = np.zeros((PENDULUM_SLOTS, 1))
    buffer.extend(column, column, column[:, 0], column, column[:, 0])
    cursor = 0  # next slot to write, in ring order over the written rows
    for step, (op, size, read_nodes) in enumerate(ops):
        if step == copy_at:
            twins = [copy.deepcopy(bounded), pickle.loads(pickle.dumps(bounded))]
            samplers += twins
            # A write far past the written blocks grows the keys at once.
            far = int(rng.integers(PENDULUM_SLOTS - 8 * BLOCK, PENDULUM_SLOTS))
            for sampler in samplers:
                sampler.insert(far)
        if op in ("insert", "insert_many"):
            slots = (cursor + np.arange(size)) % PENDULUM_ROWS
            cursor = (cursor + size) % PENDULUM_ROWS
            for sampler in samplers:
                if op == "insert":
                    for slot in slots.tolist():
                        sampler.insert(slot)
                else:
                    sampler.insert_many(slots)
        else:
            # Updates refine written slots; a scatter writes a few slots
            # anywhere above a random one, often past the written blocks.
            if op == "update":
                slots = rng.integers(0, max(cursor, 1), size=min(size, 64))
            else:
                slots = rng.integers(rng.integers(PENDULUM_ROWS), PENDULUM_ROWS, size=size % 3 + 1)
            errors = rng.exponential(size=slots.size)
            errors[rng.random(slots.size) < 0.2] = 0.0
            for sampler in samplers:
                if op == "scatter" and size % 2:
                    for slot in slots.tolist():  # one scalar write each
                        sampler.insert(slot)
                else:
                    sampler.update_priorities(slots, errors)
        assert bounded.tree.total == full.tree.total
        offsets = rng.uniform(0.0, bounded.tree.total, size=200)
        drawn = bounded.tree.sample_batch(offsets)
        assert np.array_equal(drawn, full.tree.sample_batch(offsets))
        # The search never leaves the written blocks or lands on a zero leaf.
        assert drawn.max() < bounded.tree._written * 64
        assert np.all(bounded.tree.leaves(drawn) > 0.0)
        draw_seed = int(rng.integers(2**32))
        indices, weights = bounded.sample(buffer, 64, np.random.default_rng(draw_seed))
        want_indices, want_weights = reference_per_sample(
            full, buffer, 64, np.random.default_rng(draw_seed)
        )
        assert np.array_equal(indices, want_indices)
        assert weights.tobytes() == want_weights.tobytes()
        for twin in twins:
            assert twin.tree.total == bounded.tree.total
            assert np.array_equal(twin.tree.sample_batch(offsets), drawn)
            twin_indices, twin_weights = twin.sample(buffer, 64, np.random.default_rng(draw_seed))
            assert np.array_equal(twin_indices, indices)
            assert twin_weights.tobytes() == weights.tobytes()
        # Reading nodes completes the prefix tail; reads in between must
        # not depend on whether it was.
        if read_nodes:
            for sampler in samplers[1:]:
                assert bounded.tree.nodes.tobytes() == sampler.tree.nodes.tobytes()
    for sampler in samplers[1:]:
        assert bounded.tree.nodes.tobytes() == sampler.tree.nodes.tobytes()
        keys = bounded.tree._keys
        assert keys.tobytes() == sampler.tree._keys[: keys.size].tobytes()


# A store far larger than the rows it holds, as Pendulum's.
GROWTH_SLOTS = 20_000
_GROWTH_OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "set_many", "insert_many"]),
              st.integers(0, GROWTH_SLOTS - 1), st.integers(1, 300)),
    min_size=1, max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(ops=_GROWTH_OPS)
def test_keys_cover_at_most_twice_the_written_blocks(ops) -> None:
    sampler = PrioritizedSampler(GROWTH_SLOTS)
    tree = sampler.tree
    assert tree._keys.size == 0
    for op, start, size in ops:
        slots = (start + np.arange(size)) % GROWTH_SLOTS
        if op == "insert":
            sampler.insert(start)
        elif op == "set_many":
            tree.set_many(slots, np.linspace(0.0, 1.0, size))
        else:
            sampler.insert_many(slots)
        keys = tree._keys
        covered = keys.size // BLOCK
        assert keys.size == covered * BLOCK
        assert tree._written <= covered <= 2 * tree._written
        assert np.array_equal(keys.real, np.repeat(np.arange(covered), BLOCK))
        # Covered blocks past the written ones have zero leaves, so the
        # imaginary parts are the in-block prefix sums throughout.
        expected = np.add.accumulate(tree._rows[:covered], axis=1)
        assert keys.imag.tobytes() == expected.tobytes()


_RESIDENCY_SCRIPT = """
import os
import numpy as np
from replaykit.prioritized import SumTree

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

def use(capacity):
    tree = SumTree(capacity)
    for i in range(10):
        tree.set_many([7 * i], [1.0 + i])
    tree.sample_batch(np.linspace(0.0, tree.total, 64, endpoint=False))
    return tree

use(1_000)  # the first calls load and warm numpy's code paths
before = resident()
tree = use(4_000_000)
print(resident() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_large_store_holding_few_rows_stays_small_in_memory() -> None:
    # The store reserves 64 MB of zeros for leaves and sums and, when its
    # search keys covered every block, wrote 64 MB of keys up front.
    src = os.path.dirname(os.path.dirname(prioritized.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", _RESIDENCY_SCRIPT], env=env, capture_output=True, text=True,
        check=True,
    )
    grown = int(done.stdout)
    assert grown < 16 * 2**20, f"resident memory grew {grown / 2**20:.1f} MiB"


@settings(max_examples=200, deadline=None)
@given(
    priorities=st.lists(st.just(0.0) | st.floats(1e-6, 1e6), min_size=1, max_size=300),
    batch_size=st.integers(1, 128),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_offsets_and_found_leaves_are_non_decreasing(priorities, batch_size, seed) -> None:
    # PrioritizedSampler.sample range-checks only the two ends of its
    # offsets and of the leaves found for them, which covers every entry
    # only because both arrays are non-decreasing.
    priorities = [*priorities, 1.0]
    sampler = PrioritizedSampler(len(priorities), PerConfig(alpha=1.0))
    sampler.tree.set_many(range(len(priorities)), priorities)
    searched = []
    search = sampler.tree._search

    def recorded(us):
        found = search(us)
        searched.append((us.copy(), found))
        return found

    sampler.tree._search = recorded
    rng = np.random.default_rng(seed)
    indices, _ = sampler.sample(filled_buffer(len(priorities)), batch_size, rng)
    [(offsets, found)] = searched
    assert np.array_equal(found, indices)
    assert np.all(np.diff(offsets) >= 0.0)
    assert np.all(np.diff(found) >= 0)
    assert 0.0 <= offsets[0] and offsets[-1] < sampler.tree.total
    assert np.all(np.asarray(priorities)[found] > 0.0)
