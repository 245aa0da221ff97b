from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from replaykit.errors import ConfigurationError, NotReadyError
from replaykit.hindsight import augment_observation
from replaykit.prioritized import PrioritizedSampler
from replaykit.replay import ReplayBuffer, sample_combined, sample_uniform


def make_row(tag: float, dim: int = 2, done: bool = False) -> tuple:
    """(state, action, reward, next_state, done) tagged by the reward."""
    state = np.full(dim, tag)
    return state, 0, tag, state + 1.0, done


def filled_buffer(n: int, capacity: int | None = None) -> ReplayBuffer:
    buf = ReplayBuffer(capacity or n)
    for i in range(n):
        buf.append(*make_row(float(i)))
    return buf


def rewards_at(buf: ReplayBuffer, indices) -> list[float]:
    return list(buf.gather(indices).rewards)


def test_append_validates_shapes_and_finiteness() -> None:
    bad_rows = [
        (np.zeros(2), 0, 1.0, np.zeros(3), False),
        (np.zeros((2, 1)), 0, 1.0, np.zeros((2, 1)), False),
        (np.zeros(2), 0, float("nan"), np.zeros(2), False),
    ]
    for row in bad_rows:
        with pytest.raises(ValueError):
            ReplayBuffer(4).append(*row)
    # NaN or either infinity at any position of either state
    for bad in (np.nan, np.inf, -np.inf):
        for position in range(2):
            broken = np.zeros(2)
            broken[position] = bad
            for state, next_state in ((broken, np.zeros(2)), (np.zeros(2), broken)):
                with pytest.raises(ValueError, match="^state components must be finite$"):
                    ReplayBuffer(4).append(state, 0, 1.0, next_state, False)
    # a non-finite goal fails the finite check of the states it is appended to
    with_nan_goal = augment_observation(np.zeros(2), np.array([np.nan]))
    with pytest.raises(ValueError):
        ReplayBuffer(4).append(with_nan_goal, 0, 1.0, with_nan_goal, False)
    buf = ReplayBuffer(4)
    with pytest.raises(ValueError):
        buf.append(np.zeros(2), 0, float("inf"), np.zeros(2), False)
    assert len(buf) == 0  # a rejected row is not stored


def test_capacity_must_be_positive() -> None:
    with pytest.raises(ConfigurationError):
        ReplayBuffer(0)
    with pytest.raises(ConfigurationError):
        ReplayBuffer(-3)


def test_append_returns_slots_and_evicts_fifo() -> None:
    buf = ReplayBuffer(3)
    slots = [buf.append(*make_row(float(i))) for i in range(5)]
    assert slots == [0, 1, 2, 0, 1]
    assert len(buf) == 3
    # slots now hold transitions 3, 4, 2: the two oldest were evicted
    assert rewards_at(buf, [0, 1, 2]) == [3.0, 4.0, 2.0]


def test_gather_rejects_empty_slots() -> None:
    buf = filled_buffer(2, capacity=4)
    with pytest.raises(IndexError):
        buf.gather([2])
    with pytest.raises(IndexError):
        buf.gather([-1])
    with pytest.raises(IndexError):
        ReplayBuffer(4).gather([])


def test_latest_tracks_most_recent_append() -> None:
    buf = ReplayBuffer(2)
    with pytest.raises(NotReadyError):
        buf.newest
    buf.append(*make_row(0.0))
    buf.append(*make_row(1.0))
    buf.append(*make_row(2.0))  # wraps to slot 0
    assert buf.newest == 0
    assert rewards_at(buf, [buf.newest]) == [2.0]


@pytest.mark.parametrize(
    "appended, n, want",
    [
        (3, 2, [1.0, 2.0]),  # inside the ring
        (7, 3, [4.0, 5.0, 6.0]),  # across the ring's end: slots 3, 0, 1
        (7, 9, [3.0, 4.0, 5.0, 6.0]),  # n above the capacity
        (2, 4, None),  # more than the filled rows
    ],
)
def test_newest_rows_are_in_append_order(appended, n, want) -> None:
    buf = filled_buffer(appended, capacity=4)
    if want is None:
        with pytest.raises(IndexError):
            buf.newest_rows(n)
        return
    rows = buf.newest_rows(n)
    assert rows.rewards.tolist() == want
    assert rows.states[:, 0].tolist() == want
    assert rows.indices.tolist() == [(appended - len(want) + i) % 4 for i in range(len(want))]


def test_state_dim_mismatch_rejected() -> None:
    buf = ReplayBuffer(4)
    buf.append(*make_row(0.0, dim=2))
    with pytest.raises(ValueError):
        buf.append(*make_row(1.0, dim=3))
    with pytest.raises(ValueError):
        buf.append(np.zeros(2), np.zeros(1), 0.0, np.zeros(2), False)  # action shape


def test_gather_stacks_and_augments() -> None:
    rng = np.random.default_rng(1)
    rows = [
        (rng.normal(size=3), int(rng.integers(2)), float(rng.normal()),
         rng.normal(size=3), bool(rng.random() < 0.5))
        for _ in range(4)
    ]
    plain, with_goal = ReplayBuffer(4), ReplayBuffer(4)
    goal = np.array([0.7])
    for row in rows:
        plain.append(*row)
        state, action, reward, next_state, done = row
        with_goal.append(
            augment_observation(state, goal), action, reward,
            augment_observation(next_state, goal), done,
        )
    order = np.array([2, 0, 3, 3])
    batch = plain.gather(order, np.full(4, 0.5))
    assert len(batch) == 4
    assert np.array_equal(batch.indices, order)
    assert np.array_equal(batch.states, np.stack([rows[i][0] for i in order]))
    assert np.array_equal(batch.actions, [rows[i][1] for i in order])
    assert np.array_equal(batch.rewards, [rows[i][2] for i in order])
    assert np.array_equal(batch.next_states, np.stack([rows[i][3] for i in order]))
    assert np.array_equal(batch.dones, [float(rows[i][4]) for i in order])
    assert np.all(batch.weights == 0.5)
    batch = with_goal.gather(order)
    assert batch.states.shape == (4, 4)
    assert np.array_equal(batch.states[:, :3], np.stack([rows[i][0] for i in order]))
    assert np.all(batch.states[:, 3] == 0.7)
    assert np.all(batch.next_states[:, 3] == 0.7)
    assert np.all(batch.weights == 1.0)


def sample_combined_uniform(buffer, batch_size, rng):
    return sample_combined(buffer, batch_size, sample_uniform, rng)


def sample_prioritized(buffer, batch_size, rng):
    """A fresh prioritized draw over the filled slots of ``buffer``."""
    sampler = PrioritizedSampler(buffer.capacity)
    sampler.insert_many(np.arange(len(buffer)))
    return sampler.sample(buffer, batch_size, rng)


EMPTY = "cannot sample from an empty buffer"


@pytest.mark.parametrize(
    "sampler", [sample_uniform, sample_combined_uniform, sample_prioritized],
    ids=["uniform", "combined", "prioritized"],
)
@pytest.mark.parametrize(
    "rows, batch_size, error, message",
    [
        (0, 1, NotReadyError, EMPTY),
        (0, 0, ValueError, "batch_size must be >= 1, got 0"),
        (1, 0, ValueError, "batch_size must be >= 1, got 0"),
        (2, -3, ValueError, "batch_size must be >= 1, got -3"),
    ],
    ids=["empty", "empty-batch-0", "batch-0", "batch-negative"],
)
def test_samplers_check_batch_size_then_fill(sampler, rows, batch_size, error, message) -> None:
    # Every sampler makes both checks, the batch size first, with one
    # exception type and text.
    buf = filled_buffer(rows, capacity=4)
    with pytest.raises(error) as info:
        sampler(buf, batch_size, np.random.default_rng(0))
    assert info.type is error and str(info.value) == message


def test_sample_uniform_single_element_repeats() -> None:
    buf = filled_buffer(1)
    indices, weights = sample_uniform(buf, 4, np.random.default_rng(1))
    assert list(indices) == [0, 0, 0, 0]
    assert list(weights) == [1.0, 1.0, 1.0, 1.0]


def test_sample_uniform_only_occupied_slots() -> None:
    buf = filled_buffer(3, capacity=10)
    indices, _ = sample_uniform(buf, 256, np.random.default_rng(2))
    assert set(indices.tolist()) <= {0, 1, 2}


def test_sample_uniform_frequencies() -> None:
    n = 64
    buf = filled_buffer(n)
    rng = np.random.default_rng(3)
    draws = 200_000
    indices, _ = sample_uniform(buf, draws, rng)
    counts = np.bincount(indices, minlength=n).astype(np.float64)
    # chi-square goodness of fit against the uniform distribution
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01
    # and each index within 5 standard deviations of its expectation
    p = 1.0 / n
    sigma = np.sqrt(draws * p * (1.0 - p))
    assert np.all(np.abs(counts - draws * p) <= 5.0 * sigma)


def test_sample_uniform_deterministic_for_fixed_seed() -> None:
    buf = filled_buffer(10)
    a, _ = sample_uniform(buf, 32, np.random.default_rng(7))
    b, _ = sample_uniform(buf, 32, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_sample_combined_forces_latest_first() -> None:
    buf = filled_buffer(5)
    rng = np.random.default_rng(4)
    for extra in range(3):
        buf.append(*make_row(100.0 + extra))
        indices, weights = sample_combined(buf, 8, sample_uniform, rng)
        assert len(indices) == len(weights) == 8
        assert indices[0] == buf.newest
        assert rewards_at(buf, indices[:1]) == [100.0 + extra]
        assert np.all(weights == 1.0)


def test_sample_combined_batch_of_one_is_just_latest() -> None:
    buf = filled_buffer(3)

    def exploding_sampler(*args):
        raise AssertionError("inner sampler must not run for batch_size 1")

    indices, weights = sample_combined(buf, 1, exploding_sampler, np.random.default_rng(0))
    assert list(indices) == [buf.newest]
    assert list(weights) == [1.0]
    assert rewards_at(buf, indices) == [2.0]


def test_sample_combined_weighted_inner_gets_weight_one() -> None:
    buf = filled_buffer(4)

    def weighted(buffer, batch_size, rng):
        indices, _ = sample_uniform(buffer, batch_size, rng)
        return indices, np.full(batch_size, 0.5)

    indices, weights = sample_combined(buf, 5, weighted, np.random.default_rng(5))
    assert len(indices) == 5
    assert weights[0] == 1.0
    assert np.all(weights[1:] == 0.5)


def test_sample_combined_propagates_inner_errors() -> None:
    buf = filled_buffer(2)

    def broken(buffer, batch_size, rng):
        raise RuntimeError("inner failure")

    with pytest.raises(RuntimeError, match="inner failure"):
        sample_combined(buf, 3, broken, np.random.default_rng(0))


def test_state_block_halves_are_the_stored_rows() -> None:
    # A wrapped buffer: slots 0..4 hold rows 5, 6, 2, 3, 4. Both a
    # sampled and a checked gather put the states and next states at
    # the drawn slots, byte for byte, into the two halves of one
    # C-ordered (2, n, dim) block, and states/next_states view them.
    rng = np.random.default_rng(5)
    rows = [(rng.normal(size=3), 0, 0.0, rng.normal(size=3), False) for _ in range(7)]
    buf = ReplayBuffer(5)
    for row in rows:
        buf.append(*row)
    held = dict(zip(range(5), (rows[i] for i in (5, 6, 2, 3, 4))))
    indices, weights = sample_uniform(buf, 16, rng)
    for batch in (buf.gather_filled(indices, weights), buf.gather([4, 0, 0, 1])):
        slots = batch.indices.tolist()
        want = np.stack([[held[s][0] for s in slots], [held[s][3] for s in slots]])
        block = batch.state_block
        assert block.shape == (2, len(slots), 3) and block.flags.c_contiguous
        assert block.tobytes() == want.tobytes()
        assert batch.states.tobytes() == want[0].tobytes()
        assert batch.next_states.tobytes() == want[1].tobytes()
        assert np.shares_memory(batch.states, block) and np.shares_memory(batch.next_states, block)
        assert not np.shares_memory(batch.states, batch.next_states)


def test_uniform_weights_are_shared_and_read_only() -> None:
    buf = filled_buffer(6)
    rng = np.random.default_rng(6)
    _, weights = sample_uniform(buf, 4, rng)
    _, again = sample_uniform(buf, 4, rng)
    assert weights is again and weights.tobytes() == np.ones(4).tobytes()
    batch = buf.gather_filled(*sample_uniform(buf, 4, rng))
    assert buf.gather([0, 1, 2, 3]).weights is weights
    for target in (weights, batch.weights):
        with pytest.raises(ValueError, match="read-only"):
            target[0] = 2.0
    assert weights.tobytes() == np.ones(4).tobytes()
    # Combined sampling copies them into weights of its own.
    _, combined = sample_combined(buf, 5, sample_uniform, rng)
    combined[0] = 2.0
    assert weights.tobytes() == np.ones(4).tobytes()


@pytest.mark.parametrize(
    "reward, stored",
    [
        (1.5, 1.5),
        (-0.0, -0.0),
        (np.float64(2.5), 2.5),
        (np.float32(0.25), 0.25),
        (np.int64(-3), -3.0),
        (np.array(4.0), 4.0),
        (np.array(7), 7.0),
        (True, 1.0),
        (5, 5.0),
    ],
)
def test_append_stores_every_finite_reward(reward, stored) -> None:
    buf = ReplayBuffer(2)
    buf.append(np.zeros(2), 0, reward, np.zeros(2), False)
    assert buf.gather([0]).rewards.tobytes() == np.array([stored]).tobytes()


@pytest.mark.parametrize(
    "reward",
    [
        float("nan"),
        float("inf"),
        -float("inf"),
        np.float64("nan"),
        np.float32("inf"),
        np.longdouble("-inf"),
        np.array(np.nan),
        np.array(-np.inf),
    ],
)
def test_append_rejects_a_non_finite_reward(reward) -> None:
    buf = ReplayBuffer(2)
    with pytest.raises(ValueError, match="reward must be finite"):
        buf.append(np.zeros(2), 0, reward, np.zeros(2), False)
    assert len(buf) == 0
