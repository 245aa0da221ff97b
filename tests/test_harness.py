from __future__ import annotations

import itertools
import math
import os
import time

import numpy as np
import pytest

from replaykit.agents import (
    DdpgAgent,
    DdpgConfig,
    DqnAgent,
    DqnConfig,
    greedy_policy,
    scaler_for,
)
from replaykit.envs import DiscreteActions, Pendulum, env_class, env_spec, make_env
from replaykit.errors import ConfigurationError, IntegrityError
from replaykit.harness import (
    CSV_HEADER,
    NO_CONVERGENCE,
    SWEEP_STRATEGIES,
    UNSUPPORTED,
    Experiment,
    ReplayStack,
    RunConfig,
    TrainRecord,
    build_run,
    check_convergence,
    config_from_mapping,
    config_to_mapping,
    effective_mapping,
    emit_csv,
    evaluate_checkpoint,
    evaluate_policy,
    parse_config_file,
    run_to_dir,
    sweep,
    train,
    validate_config,
    write_manifest,
)
from replaykit.hindsight import Columns, augment_observation
from replaykit.nn import Mlp, forward, init_mlp
from replaykit.prioritized import PerConfig


def tiny_config(**overrides) -> RunConfig:
    dqn = DqnConfig(
        warmup=8, batch_size=4, hidden_sizes=(8,), target_update_period=5
    )
    base: dict = dict(
        env="cartpole",
        agent="dqn",
        episodes=3,
        eval_interval=2,
        eval_episodes=2,
        buffer_capacity=256,
        dqn=dqn,
    )
    base.update(overrides)
    return RunConfig(**base)


def dummy_row(tag: float) -> tuple:
    """(state, action, reward, next_state, done) tagged by the reward."""
    return np.array([tag, 0.0]), 0, tag, np.array([tag, 1.0]), False


# --- config plumbing ---


def test_run_config_validation() -> None:
    with pytest.raises(ConfigurationError):
        RunConfig(seed=-1)
    with pytest.raises(ConfigurationError):
        RunConfig(episodes=-1)
    with pytest.raises(ConfigurationError):
        RunConfig(eval_interval=0)
    with pytest.raises(ConfigurationError):
        RunConfig(buffer_capacity=0)
    assert RunConfig(episodes=0).episodes == 0


def test_resolved_buffer_capacity_defaults() -> None:
    assert RunConfig(agent="dqn").resolved_buffer_capacity() == 50_000
    assert RunConfig(env="pendulum", agent="ddpg").resolved_buffer_capacity() == 100_000
    assert RunConfig(buffer_capacity=7).resolved_buffer_capacity() == 7


def test_strategy_name() -> None:
    assert RunConfig().strategy_name() == "baseline"
    assert RunConfig(combined=True).strategy_name() == "cer"
    assert RunConfig(prioritized=True).strategy_name() == "per"
    assert RunConfig(hindsight=True, env="mountaincar").strategy_name() == "her"
    assert RunConfig(combined=True, prioritized=True).strategy_name() == "cper"
    assert (
        RunConfig(combined=True, hindsight=True, prioritized=True, env="mountaincar")
        .strategy_name()
    ) == "chper"


def test_config_mapping_round_trip() -> None:
    cfg = tiny_config(seed=42, prioritized=True)
    mapping = config_to_mapping(cfg)
    rebuilt = config_from_mapping(mapping)
    assert rebuilt == cfg


def test_config_from_mapping_nested_prefixes() -> None:
    cfg = config_from_mapping(
        {
            "env": "pendulum",
            "agent": "ddpg",
            "ddpg_tau": "0.005",
            "ddpg_hidden_sizes": "32,16",
            "per_alpha": "0.8",
            "dqn_batch_size": "16",
        }
    )
    assert cfg.env == "pendulum"
    assert cfg.ddpg.tau == pytest.approx(0.005)
    assert cfg.ddpg.hidden_sizes == (32, 16)
    assert cfg.per.alpha == pytest.approx(0.8)
    assert cfg.dqn.batch_size == 16


def test_config_from_mapping_unknown_key() -> None:
    with pytest.raises(ConfigurationError, match="unknown config key"):
        config_from_mapping({"learning_rate": "0.1"})
    with pytest.raises(ConfigurationError, match="unknown config key"):
        config_from_mapping({"dqn_bogus": "1"})


def test_config_from_mapping_bad_values() -> None:
    with pytest.raises(ConfigurationError):
        config_from_mapping({"episodes": "many"})
    with pytest.raises(ConfigurationError):
        config_from_mapping({"combined": "maybe"})


def test_config_from_mapping_optional_fields() -> None:
    cfg = config_from_mapping({"buffer_capacity": "", "goal_tolerance": "none"})
    assert cfg.buffer_capacity is None
    assert cfg.goal_tolerance is None
    cfg = config_from_mapping({"buffer_capacity": "123", "goal_tolerance": "0.2"})
    assert cfg.buffer_capacity == 123
    assert cfg.goal_tolerance == pytest.approx(0.2)


def test_parse_config_file(tmp_path) -> None:
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment\n"
        "\n"
        "env = mountaincar\n"
        "agent=dqn\n"
        "dqn_gamma = 0.95\n"
    )
    mapping = parse_config_file(path)
    assert mapping == {"env": "mountaincar", "agent": "dqn", "dqn_gamma": "0.95"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("env mountaincar\n")
    with pytest.raises(ConfigurationError, match="key=value"):
        parse_config_file(bad)


def test_resolved_goal_tolerance() -> None:
    assert RunConfig(env="mountaincar").resolved_goal_tolerance() == 0.05
    assert RunConfig(env="pendulum", agent="ddpg").resolved_goal_tolerance() == 0.1
    assert RunConfig(env="pendulum", goal_tolerance=0.3).resolved_goal_tolerance() == 0.3
    assert RunConfig(env="cartpole").resolved_goal_tolerance() is None


def test_validate_config_rejects_mountaincar_tolerance_below_floor(tmp_path) -> None:
    for hindsight in (True, False):
        cfg = RunConfig(env="mountaincar", hindsight=hindsight, goal_tolerance=0.01)
        with pytest.raises(ConfigurationError, match="goal_tolerance 0.01 .*0.05"):
            validate_config(cfg)
    # so a sweep fails as a whole instead of listing HER runs as unsupported
    with pytest.raises(ConfigurationError, match="goal_tolerance"):
        sweep(tiny_config(env="mountaincar", goal_tolerance=0.01), tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()
    validate_config(RunConfig(env="mountaincar", hindsight=True, goal_tolerance=0.05))
    validate_config(RunConfig(env="pendulum", agent="ddpg", hindsight=True, goal_tolerance=0.01))


def test_effective_mapping_resolves_auto_fields() -> None:
    mapping = effective_mapping(RunConfig(env="mountaincar", hindsight=True))
    assert mapping["buffer_capacity"] == "50000"
    assert mapping["goal_tolerance"] == "0.05"
    assert mapping["env"] == "mountaincar"


# --- validation and wiring ---


def test_validate_config_rejects_bad_pairs() -> None:
    with pytest.raises(ConfigurationError, match="dqn.*pendulum|pendulum.*dqn"):
        validate_config(RunConfig(env="pendulum", agent="dqn"))
    with pytest.raises(ConfigurationError, match="ddpg.*cartpole|cartpole.*ddpg"):
        validate_config(RunConfig(env="cartpole", agent="ddpg"))
    with pytest.raises(ConfigurationError, match="hindsight.*cartpole"):
        validate_config(RunConfig(env="cartpole", hindsight=True))
    with pytest.raises(ConfigurationError):
        validate_config(RunConfig(env="gridworld"))
    with pytest.raises(ConfigurationError, match="unknown agent"):
        validate_config(RunConfig(agent="sarsa"))


def test_validate_config_accepts_supported_pairs() -> None:
    validate_config(RunConfig(env="cartpole", agent="dqn"))
    validate_config(RunConfig(env="mountaincar", agent="dqn", hindsight=True))
    validate_config(RunConfig(env="pendulum", agent="ddpg", hindsight=True))


def test_build_run_dqn() -> None:
    exp = build_run(tiny_config())
    assert isinstance(exp.agent, DqnAgent)
    assert exp.agent.config is exp.config.dqn
    assert exp.goal_tolerance is None
    assert exp.native_goal is None
    assert exp.stack.buffer.capacity == 256
    assert exp.agent.q.input_dim == 4


def test_build_run_ddpg_with_goal() -> None:
    cfg = RunConfig(env="pendulum", agent="ddpg", hindsight=True, episodes=1)
    exp = build_run(cfg)
    assert isinstance(exp.agent, DdpgAgent)
    assert exp.agent.config is cfg.ddpg
    assert exp.agent.noise.state == pytest.approx([cfg.ddpg.ou_mu])
    assert exp.goal_tolerance == 0.1
    # pendulum obs (3) + goal (1)
    assert exp.agent.actor.input_dim == 4
    assert exp.native_goal == pytest.approx([0.0])


def test_build_run_hindsight_mountaincar_goal() -> None:
    exp = build_run(tiny_config(env="mountaincar", hindsight=True))
    assert exp.native_goal == pytest.approx([0.55])
    assert exp.agent.q.input_dim == 3


# --- replay stack sampling paths ---


def test_stack_uniform_weights_are_unit() -> None:
    stack = ReplayStack(16, combined=False, per_config=None,
                        rng=np.random.default_rng(0))
    for i in range(6):
        stack.append(*dummy_row(float(i)))
    batch = stack.sample(4)
    assert len(batch.indices) == 4
    assert batch.weights == pytest.approx(np.ones(4))


def test_stack_combined_forces_latest() -> None:
    stack = ReplayStack(16, combined=True, per_config=None,
                        rng=np.random.default_rng(1))
    for i in range(6):
        stack.append(*dummy_row(float(i)))
        batch = stack.sample(3)
        assert batch.indices[0] == stack.buffer.newest
        assert batch.rewards[0] == float(i)


def test_stack_prioritized_weights() -> None:
    stack = ReplayStack(16, combined=False, per_config=PerConfig(),
                        rng=np.random.default_rng(2))
    for i in range(8):
        stack.append(*dummy_row(float(i)))
    stack.update_priorities(np.arange(8), np.linspace(0.0, 4.0, 8))
    batch = stack.sample(6)
    assert batch.weights.max() == pytest.approx(1.0)
    assert np.all(batch.weights > 0.0)
    assert np.all(batch.weights <= 1.0)


def test_stack_combined_prioritized_latest_weight_one() -> None:
    stack = ReplayStack(16, combined=True, per_config=PerConfig(),
                        rng=np.random.default_rng(3))
    for i in range(8):
        stack.append(*dummy_row(float(i)))
    stack.update_priorities(np.arange(8), np.linspace(0.0, 4.0, 8))
    batch = stack.sample(5)
    assert batch.indices[0] == stack.buffer.newest
    assert batch.rewards[0] == 7.0
    assert np.array_equal(batch.states[0], [7.0, 0.0])
    assert batch.weights[0] == pytest.approx(1.0)


def test_stack_update_priorities_without_per_is_noop() -> None:
    stack = ReplayStack(4, combined=False, per_config=None,
                        rng=np.random.default_rng(4))
    stack.append(*dummy_row(0.0))
    stack.update_priorities(np.array([0]), np.array([3.0]))  # must not raise


def random_columns(rng: np.random.Generator, n: int, dim: int = 3) -> Columns:
    """n transitions as columns, shaped like Pendulum's relabeled rows."""
    return Columns(
        states=rng.normal(size=(n, dim)),
        actions=rng.uniform(-2.0, 2.0, size=(n, 1)),
        rewards=rng.normal(size=n),
        next_states=rng.normal(size=(n, dim)),
        dones=rng.random(n) < 0.3,
    )


def stack_state(stack: ReplayStack) -> dict[str, object]:
    """Every column of the buffer, its cursor, count and newest slot,
    and the PER store's bytes and running max priority."""
    buf = stack.buffer
    state = {name: getattr(buf, name).tobytes() for name in
             ("_states", "_actions", "_rewards", "_next_states", "_dones")}
    state.update(cursor=buf._cursor, count=len(buf), newest=buf.newest,
                 nodes=stack.per.tree.nodes.tobytes(), max_raw=repr(stack.per._max_raw))
    return state


def per_stack_holding(rng: np.random.Generator, capacity: int, rows: int) -> ReplayStack:
    """A PER stack holding ``rows`` appended rows, with refined
    priorities that raise the running max above its initial value."""
    stack = ReplayStack(capacity, combined=False, per_config=PerConfig(),
                        rng=np.random.default_rng(0))
    for row in zip(*random_columns(rng, rows)):
        stack.append(*row)
    stack.update_priorities(np.arange(5), [3.0, 0.5, 7.0, 0.0, 1.0])
    return stack


@pytest.mark.parametrize(
    "capacity, before, n",
    [(100, 10, 40), (100, 70, 50), (64, 30, 150)],
    ids=["no-wrap", "wrap", "longer-than-capacity"],
)
def test_stack_extend_equals_one_append_per_row(capacity, before, n) -> None:
    seed = capacity * 1000 + n
    by_rows = per_stack_holding(np.random.default_rng(seed), capacity, before)
    by_columns = per_stack_holding(np.random.default_rng(seed), capacity, before)
    columns = random_columns(np.random.default_rng(seed + 1), n)
    slots = [by_rows.append(*row) for row in zip(*columns)]
    written = by_columns.extend(*columns)
    # Appends leave the last ``capacity`` rows; only their slots count.
    assert written.tolist() == slots[-capacity:]
    assert stack_state(by_columns) == stack_state(by_rows)


@pytest.mark.parametrize(
    "fault", ["nan-state", "inf-next-state", "nan-reward", "wide-states", "action-shape",
              "short-rewards"],
)
def test_stack_extend_rejects_bad_columns_and_writes_nothing(fault) -> None:
    rng = np.random.default_rng(17)
    stack = per_stack_holding(rng, 16, 10)
    before = stack_state(stack)
    columns = random_columns(rng, 8)._asdict()
    if fault == "nan-state":
        columns["states"][3, 1] = np.nan
    elif fault == "inf-next-state":
        columns["next_states"][6, 0] = np.inf
    elif fault == "nan-reward":
        columns["rewards"][2] = np.nan
    elif fault == "wide-states":
        columns["states"] = np.zeros((8, 4))
        columns["next_states"] = np.zeros((8, 4))
    elif fault == "action-shape":
        columns["actions"] = np.zeros((8, 2))
    else:
        columns["rewards"] = columns["rewards"][:7]
    with pytest.raises(ValueError):
        stack.extend(**columns)
    assert stack_state(stack) == before


# --- training loop ---


def test_train_zero_episodes() -> None:
    exp = build_run(tiny_config(episodes=0))
    assert train(exp) == []


def test_train_records_shape_and_nan_before_first_eval() -> None:
    cfg = tiny_config(episodes=3, eval_interval=2)
    records = train(build_run(cfg))
    assert [r.episode for r in records] == [1, 2, 3]
    assert math.isnan(records[0].eval_mean)
    assert not math.isnan(records[1].eval_mean)
    # carried forward between evals
    assert records[2].eval_mean == records[1].eval_mean
    assert records[0].steps >= 1
    assert records[-1].steps >= records[0].steps


def test_train_is_deterministic() -> None:
    cfg = tiny_config(seed=9)
    a = train(build_run(cfg))
    b = train(build_run(cfg))
    assert a == b


def test_train_seed_changes_trajectories() -> None:
    a = train(build_run(tiny_config(seed=0)))
    b = train(build_run(tiny_config(seed=1)))
    assert a != b


class FirstUpdate(Exception):
    """Raised in place of a run's first learning step."""


def rows_before_first_update(cfg: RunConfig) -> tuple:
    """The network bits a run starts from and every row it stores
    before its first learning step."""
    exp = build_run(cfg)
    params = exp.agent.pair.params.tobytes()

    def stop(batch):
        raise FirstUpdate

    exp.agent.update = stop
    with pytest.raises(FirstUpdate):
        train(exp)
    assert len(exp.stack) == cfg.dqn.warmup
    rows = exp.stack.buffer.gather(np.arange(len(exp.stack)))
    columns = (rows.states, rows.actions, rows.rewards, rows.next_states, rows.dones)
    return params, tuple(column.tobytes() for column in columns)


def test_strategies_perturb_no_other_random_stream() -> None:
    # The harness promises that enabling one strategy never perturbs the
    # random draws of another part: at one seed, CartPole DQN under
    # uniform, CER, PER and CPER starts from the same network bits and
    # stores the same rows until it first learns.
    seen = {
        (combined, prioritized): rows_before_first_update(
            RunConfig(env="cartpole", agent="dqn", seed=5, combined=combined,
                      prioritized=prioritized)
        )
        for combined in (False, True)
        for prioritized in (False, True)
    }
    assert len(set(seen.values())) == 1


def test_train_early_stops_on_solve(monkeypatch) -> None:
    import replaykit.harness as harness

    monkeypatch.setattr(
        harness, "evaluate_policy", lambda env, policy, episodes, rng: (200.0, 0.0)
    )
    cfg = tiny_config(episodes=50, eval_interval=2)
    records = harness.train(build_run(cfg))
    assert records[-1].episode == 2
    assert records[-1].eval_mean == pytest.approx(200.0)


def test_train_cer_invariant_every_batch(monkeypatch) -> None:
    """Slot 0 of every batch is the newest slot and holds the row the
    harness appended last."""
    cfg = tiny_config(combined=True, episodes=3)
    exp = build_run(cfg)
    seen: list[bool] = []
    appended: list[tuple] = []
    original_append, original_sample = exp.stack.append, exp.stack.sample

    def recording_append(*row):
        appended.append(row)
        return original_append(*row)

    def recording_sample(batch_size):
        batch = original_sample(batch_size)
        state, action, reward, next_state, done = appended[-1]
        seen.append(
            batch.indices[0] == exp.stack.buffer.newest
            and np.array_equal(batch.states[0], state)
            and batch.actions[0] == action
            and batch.rewards[0] == reward
            and np.array_equal(batch.next_states[0], next_state)
            and batch.dones[0] == float(done)
        )
        return batch

    exp.stack.append = recording_append
    exp.stack.sample = recording_sample
    train(exp)
    assert len(seen) > 10
    assert all(seen)


def test_train_hindsight_doubles_stored_transitions() -> None:
    cfg = tiny_config(
        env="mountaincar",
        hindsight=True,
        episodes=2,
        buffer_capacity=2_000,
        dqn=DqnConfig(warmup=2_000),  # never reached: storage only
    )
    exp = build_run(cfg)
    records = train(exp)
    env_steps = records[-1].steps
    assert len(exp.stack) == 2 * env_steps
    # each episode: originals first, relabeled copies appended after
    # states carry the goal after the 2 observation components
    first_episode_steps = records[0].steps
    rows = exp.stack.buffer.gather([0, first_episode_steps, first_episode_steps - 1])
    original, relabeled, last = 0, 1, 2
    assert rows.states[original, 2] == pytest.approx(0.55)
    assert np.array_equal(rows.states[original, :2], rows.states[relabeled, :2])
    assert np.array_equal(rows.next_states[original, :2], rows.next_states[relabeled, :2])
    final_state = rows.next_states[last, :2]
    assert rows.states[relabeled, 2] == pytest.approx(final_state[0])


def test_train_pendulum_hindsight_stores_no_terminal_rows() -> None:
    cfg = tiny_config(
        env="pendulum",
        agent="ddpg",
        hindsight=True,
        episodes=1,
        buffer_capacity=400,
        ddpg=DdpgConfig(warmup=400),  # reached only after the last step: storage only
    )
    exp = build_run(cfg)
    train(exp)
    rows = exp.stack.buffer.gather(np.arange(len(exp.stack)))
    assert len(rows.dones) == 400
    assert not rows.dones.any()
    # relabeled rows: the achieved goal, rewards scored on the state left
    goal = rows.states[200, 3]
    assert np.all(rows.states[200:, 3] == goal)
    for i in range(200, 400):
        state, action = rows.states[i, :3], rows.actions[i]
        expected, _ = Pendulum.goal_reward(state, action, None, [goal], exp.goal_tolerance)
        assert rows.rewards[i] == expected


@pytest.mark.parametrize("capacity", [64, 199, 200, 399, 1_000])
def test_train_hindsight_relabels_the_newest_rows_of_any_buffer(capacity) -> None:
    """Pendulum episodes run n = 200 steps. Whatever the buffer's
    capacity C, after two episodes its rows in FIFO order are the last C
    of: each episode's originals, then the relabels of all its steps.
    So the newest min(n, C) rows are the relabels of the newest
    min(n, C) originals, in step order, as when every step is relabeled
    and the ring keeps the last C; when C < n only their slots differ."""
    ddpg = DdpgConfig(warmup=capacity, batch_size=4, hidden_sizes=(8,))
    cfg = tiny_config(
        env="pendulum", agent="ddpg", hindsight=True, episodes=2, buffer_capacity=capacity,
        ddpg=ddpg,
    )
    exp = build_run(cfg)
    originals: list[tuple] = []
    original_append = exp.stack.append

    def recording_append(*row):
        originals.append(tuple(np.array(value, copy=True) for value in row))
        return original_append(*row)

    exp.stack.append = recording_append
    train(exp)
    n, width = exp.spec.max_episode_steps, exp.spec.obs_dim
    assert len(originals) == 2 * n
    model = []
    for start in (0, n):
        episode = originals[start:start + n]
        model += episode
        goal = Pendulum.achieved_goal(episode[-1][3][:width])
        for state, action, _, next_state, _ in episode:
            state, next_state = state[:width], next_state[:width]
            reward, _ = Pendulum.goal_reward(state, action, next_state, goal, exp.goal_tolerance)
            model.append(
                (augment_observation(state, goal), action, reward,
                 augment_observation(next_state, goal), False)
            )
    want = model[-capacity:]
    buffer = exp.stack.buffer
    assert len(buffer) == len(want) == min(capacity, 4 * n)
    # each episode writes n originals and min(n, C) relabels
    assert buffer.newest == (2 * (n + min(n, capacity)) - 1) % capacity
    rows = buffer.gather((buffer.newest + np.arange(1 - len(want), 1)) % capacity)
    got = (rows.states, rows.actions, rows.rewards, rows.next_states, rows.dones)
    for column, wanted in zip(got, zip(*want)):
        assert column.tobytes() == np.array(wanted, dtype=np.float64).reshape(column.shape).tobytes()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(env="mountaincar", dqn=DqnConfig(warmup=50, batch_size=8, hidden_sizes=(8,))),
        dict(
            env="pendulum",
            agent="ddpg",
            ddpg=DdpgConfig(warmup=50, batch_size=8, hidden_sizes=(8,)),
        ),
    ],
    ids=["mountaincar-dqn", "pendulum-ddpg"],
)
def test_train_hindsight_learner_reads_what_the_agent_saw(overrides) -> None:
    """Trajectory-level invariant of a real HER run: each stored original
    row's state is, bit for bit, the array the agent acted on at that
    step, and its next state the one it acts on next within the episode;
    every relabeled row carries the goal achieved at its episode's final
    state."""
    exp = build_run(
        tiny_config(hindsight=True, episodes=2, buffer_capacity=2_000, **overrides)
    )
    obs_dim = len(exp.spec.obs_center)
    seen: list[np.ndarray] = []
    original_act = exp.agent.act

    def recording_act(obs, rng):
        seen.append(np.array(obs, copy=True))
        return original_act(obs, rng)

    exp.agent.act = recording_act
    records = train(exp)
    rows = exp.stack.buffer.gather(np.arange(len(exp.stack)))
    assert len(seen) == records[-1].steps > exp.agent.config.warmup  # it learned too
    assert len(rows) == 2 * len(seen)
    slot = acted = 0
    for rec in records:
        n = rec.steps - acted
        original = slice(slot, slot + n)
        relabeled = slice(slot + n, slot + 2 * n)
        for k in range(n):
            assert rows.states[slot + k].tobytes() == seen[acted + k].tobytes()
            if k + 1 < n:
                assert rows.next_states[slot + k].tobytes() == seen[acted + k + 1].tobytes()
        final_state = rows.next_states[slot + n - 1, :obs_dim]
        goal = type(exp.env).achieved_goal(final_state)
        for column in (rows.states, rows.next_states):
            assert column[relabeled, :obs_dim].tobytes() == column[original, :obs_dim].tobytes()
            assert column[relabeled, obs_dim:].tobytes() == np.tile(goal, (n, 1)).tobytes()
        slot += 2 * n
        acted += n
    assert slot == len(rows)


def test_train_epsilon_clock_is_the_env_step_count() -> None:
    """Trajectory-level invariant: every act explores with the linear
    schedule at the number of env steps taken before it, across episode
    ends and evaluations, and the agent's clock ends at the run's steps."""
    dqn = DqnConfig(warmup=8, batch_size=4, hidden_sizes=(8,), epsilon_start=1.0,
                    epsilon_end=0.1, epsilon_decay_steps=30)
    exp = build_run(tiny_config(episodes=4, dqn=dqn))
    env_steps = 0
    used: list[tuple[int, float]] = []
    original_step, original_act = exp.env.step, exp.agent.act

    def counting_step(action):
        nonlocal env_steps
        env_steps += 1
        return original_step(action)

    def recording_act(obs, rng):
        used.append((env_steps, exp.agent.epsilon))
        return original_act(obs, rng)

    exp.env.step = counting_step
    exp.agent.act = recording_act
    records = train(exp)
    assert len(records) == 4 and not math.isnan(records[-1].eval_mean)
    assert exp.agent.acts == records[-1].steps == env_steps == len(used)
    assert env_steps > dqn.epsilon_decay_steps
    for step, (seen_step, epsilon) in enumerate(used):
        assert seen_step == step
        assert epsilon == 1.0 + (0.1 - 1.0) * min(step / 30, 1.0)


def test_train_ou_noise_starts_every_episode_at_mu() -> None:
    """Trajectory-level invariant: the OU state is ``mu`` at the first
    act of every episode, though each episode leaves it elsewhere."""
    ddpg = DdpgConfig(warmup=64, batch_size=16, hidden_sizes=(16,), ou_mu=0.3)
    exp = build_run(tiny_config(env="pendulum", agent="ddpg", episodes=3, ddpg=ddpg))
    at_reset: list[np.ndarray] = []
    at_first_act: list[np.ndarray] = []
    original_reset, original_act = exp.env.reset, exp.agent.act

    def recording_reset(rng):
        at_reset.append(exp.agent.noise.state.copy())
        return original_reset(rng)

    def recording_act(obs, rng):
        if len(at_first_act) < len(at_reset):
            at_first_act.append(exp.agent.noise.state.copy())
        return original_act(obs, rng)

    exp.env.reset = recording_reset
    exp.agent.act = recording_act
    records = train(exp)
    assert len(records) == len(at_first_act) == 3
    assert all(np.array_equal(state, [0.3]) for state in at_first_act)
    assert not any(np.array_equal(state, [0.3]) for state in at_reset[1:])


# --- convergence and output files ---


def record(episode, eval_mean) -> TrainRecord:
    return TrainRecord(episode, 0.0, eval_mean, 0.0, episode * 10)


def test_check_convergence_first_hit() -> None:
    spec = env_spec("cartpole")
    records = [record(1, math.nan), record(2, 150.0), record(3, 200.0), record(4, 120.0)]
    assert check_convergence(records, spec) == 3
    assert check_convergence([record(1, 10.0)], spec) is None
    assert check_convergence([], spec) is None


def test_check_convergence_mountaincar_threshold() -> None:
    spec = env_spec("mountaincar")
    assert check_convergence([record(5, -105.0)], spec) == 5
    assert check_convergence([record(5, -115.0)], spec) is None


def test_check_convergence_pendulum_has_no_threshold() -> None:
    spec = env_spec("pendulum")
    assert check_convergence([record(5, -100.0)], spec) is None


def test_emit_csv_formatting(tmp_path) -> None:
    path = tmp_path / "run.csv"
    emit_csv([TrainRecord(1, 21.0, math.nan, math.nan, 21)], path)
    text = path.read_text()
    assert text == CSV_HEADER + "\n1,21.000000,nan,nan,21\n"


def test_emit_csv_empty_records_header_only(tmp_path) -> None:
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_csv_rejects_directory(tmp_path) -> None:
    target = tmp_path / "run.csv"
    target.mkdir()
    with pytest.raises(OSError):
        emit_csv([], target)
    assert target.is_dir()
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


def test_write_manifest_sorted(tmp_path) -> None:
    path = tmp_path / "manifest.txt"
    write_manifest(path, tiny_config(), extra={"zzz": "1", "aaa": "2"})
    lines = path.read_text().splitlines()
    keys = [line.partition("=")[0] for line in lines]
    assert keys == sorted(keys)
    assert "aaa=2" in lines
    assert "zzz=1" in lines


_DEFAULT_HYPERPARAMETER_LINES = {
    "ddpg": (
        "ddpg_actor_lr=0.0001\n"
        "ddpg_batch_size=64\n"
        "ddpg_critic_lr=0.001\n"
        "ddpg_gamma=0.99\n"
        "ddpg_hidden_sizes=64,64\n"
        "ddpg_ou_mu=0.0\n"
        "ddpg_ou_sigma=0.2\n"
        "ddpg_ou_theta=0.15\n"
        "ddpg_tau=0.005\n"
        "ddpg_warmup=1000\n"
    ),
    "dqn": (
        "dqn_batch_size=32\n"
        "dqn_epsilon_decay_steps=10000\n"
        "dqn_epsilon_end=0.05\n"
        "dqn_epsilon_start=1.0\n"
        "dqn_gamma=0.99\n"
        "dqn_hidden_sizes=64,64\n"
        "dqn_learning_rate=0.001\n"
        "dqn_target_update_period=500\n"
        "dqn_warmup=1000\n"
    ),
}


@pytest.mark.parametrize(
    "cfg, expected",
    [
        (
            RunConfig(),
            "agent=dqn\n"
            "buffer_capacity=50000\n"
            "combined=false\n"
            "converged_at=\n"
            + _DEFAULT_HYPERPARAMETER_LINES["ddpg"]
            + _DEFAULT_HYPERPARAMETER_LINES["dqn"]
            + "env=cartpole\n"
            "episodes=500\n"
            "eval_episodes=100\n"
            "eval_interval=50\n"
            "goal_tolerance=\n"
            "hindsight=false\n"
            "per_alpha=0.6\n"
            "per_beta=0.4\n"
            "per_epsilon=0.01\n"
            "per_max_priority=1.0\n"
            "prioritized=false\n"
            "seed=0\n",
        ),
        (
            RunConfig(
                env="pendulum",
                agent="ddpg",
                hindsight=True,
                prioritized=True,
                seed=11,
                episodes=40,
                buffer_capacity=2048,
                ddpg=DdpgConfig(
                    tau=0.01, actor_lr=1e-5, ou_sigma=0.3, hidden_sizes=(32, 16)
                ),
                per=PerConfig(alpha=0.7, max_priority=2.5),
            ),
            "agent=ddpg\n"
            "buffer_capacity=2048\n"
            "combined=false\n"
            "converged_at=\n"
            "ddpg_actor_lr=1e-05\n"
            "ddpg_batch_size=64\n"
            "ddpg_critic_lr=0.001\n"
            "ddpg_gamma=0.99\n"
            "ddpg_hidden_sizes=32,16\n"
            "ddpg_ou_mu=0.0\n"
            "ddpg_ou_sigma=0.3\n"
            "ddpg_ou_theta=0.15\n"
            "ddpg_tau=0.01\n"
            "ddpg_warmup=1000\n"
            + _DEFAULT_HYPERPARAMETER_LINES["dqn"]
            + "env=pendulum\n"
            "episodes=40\n"
            "eval_episodes=100\n"
            "eval_interval=50\n"
            "goal_tolerance=0.1\n"
            "hindsight=true\n"
            "per_alpha=0.7\n"
            "per_beta=0.4\n"
            "per_epsilon=0.01\n"
            "per_max_priority=2.5\n"
            "prioritized=true\n"
            "seed=11\n",
        ),
    ],
    ids=["dqn-defaults", "ddpg-hindsight-prioritized-overrides"],
)
def test_write_manifest_bytes_are_pinned(tmp_path, cfg, expected) -> None:
    # The same extras run_to_dir writes; the wall-clock line varies by
    # run and is left out of the comparison.
    path = tmp_path / "manifest.txt"
    write_manifest(path, cfg, extra={"converged_at": "", "total_wallclock_ms": "17"})
    lines = path.read_bytes().decode("utf-8").splitlines(keepends=True)
    assert "total_wallclock_ms=17\n" in lines
    kept = "".join(line for line in lines if not line.startswith("total_wallclock_ms="))
    assert kept == expected


def test_run_to_dir_writes_artifacts(tmp_path) -> None:
    out = tmp_path / "run0"
    result = run_to_dir(tiny_config(episodes=2), out)
    assert os.path.exists(result["csv"])
    assert os.path.exists(result["manifest"])
    assert os.path.exists(result["checkpoint"])
    manifest = (out / "manifest.txt").read_text()
    assert "total_wallclock_ms=" in manifest
    assert "converged_at=" in manifest
    assert len(result["records"]) == 2


@pytest.mark.parametrize(
    "cfg",
    [
        tiny_config(episodes=3, seed=5),
        RunConfig(
            env="pendulum",
            agent="ddpg",
            hindsight=True,
            prioritized=True,
            seed=5,
            episodes=2,
            eval_interval=2,
            eval_episodes=1,
            buffer_capacity=256,
            ddpg=DdpgConfig(warmup=8, batch_size=4, hidden_sizes=(8,)),
        ),
    ],
    ids=["dqn", "ddpg-hindsight-prioritized"],
)
def test_run_to_dir_byte_identical_reruns(tmp_path, monkeypatch, cfg) -> None:
    """No setting lets the clock reach run.csv, checkpoint.txt or any
    manifest line but total_wallclock_ms: the second run sees
    ``time.monotonic`` jump an hour on every call."""
    run_to_dir(cfg, tmp_path / "a")
    real, calls = time.monotonic, itertools.count(1)
    with monkeypatch.context() as patch:
        patch.setattr(time, "monotonic", lambda: real() + 3600.0 * next(calls))
        run_to_dir(cfg, tmp_path / "b")

    def read(run, name):
        return (tmp_path / run / name).read_bytes()

    for name in ("run.csv", "checkpoint.txt"):
        assert read("a", name) == read("b", name), name
    assert len(read("a", "run.csv")) > len(CSV_HEADER)
    manifests = [read(run, "manifest.txt").decode("utf-8").splitlines() for run in "ab"]
    clock = [line for line in manifests[1] if line.startswith("total_wallclock_ms=")]
    assert clock and int(clock[0].partition("=")[2]) >= 3_600_000
    kept = [
        [line for line in lines if not line.startswith("total_wallclock_ms=")]
        for lines in manifests
    ]
    assert kept[0] == kept[1]


def test_sweep_reports_unsupported_and_statuses(tmp_path) -> None:
    # eval_interval above the episode budget: no evaluations, so every
    # supported combo ends as no-convergence; hindsight combos are
    # structurally unsupported on cartpole
    cfg = tiny_config(episodes=1, eval_interval=10)
    rows = sweep(cfg, tmp_path / "sweep")
    names = [
        RunConfig(combined=c, hindsight=h, prioritized=p).strategy_name()
        for c, h, p in SWEEP_STRATEGIES
    ]
    assert names == ["baseline", "cer", "per", "her", "cper", "cher", "hper", "chper"]
    assert [name for name, _, _ in rows] == names
    statuses = dict((name, status) for name, status, _ in rows)
    assert statuses["baseline"] == NO_CONVERGENCE
    assert statuses["cer"] == NO_CONVERGENCE
    assert statuses["per"] == NO_CONVERGENCE
    assert statuses["cper"] == NO_CONVERGENCE
    for name in ("her", "cher", "hper", "chper"):
        assert statuses[name] == UNSUPPORTED
        assert not os.path.exists(tmp_path / "sweep" / name)
    summary = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
    assert summary[0] == "strategy,status,episodes_to_convergence"
    assert summary[1] == "baseline,no-convergence-within-limit,"
    assert summary[4] == "her,unsupported,"
    assert os.path.exists(tmp_path / "sweep" / "baseline" / "run.csv")


# --- frozen-policy evaluation ---


def one_at_a_time_reference(env_name, net, hindsight, episodes, rng):
    """Evaluation played one episode after another on one env, with one
    one-row forward per step. Returns (mean, std, start states,
    [(steps, done)])."""
    spec = env_spec(env_name)
    scaler = scaler_for(spec, hindsight)
    goal = env_class(env_name).native_goal(spec.goal_tolerance) if hindsight else None
    env = make_env(env_name)
    totals, starts, ends = np.empty(episodes), [], []
    for i in range(episodes):
        obs = env.reset(rng)
        starts.append(obs)
        total, steps = 0.0, 0
        while True:
            out = forward(net, scaler(augment_observation(obs, goal))[None])[0][0]
            if isinstance(spec.actions, DiscreteActions):
                action = int(np.argmax(out))
            else:
                action = np.clip(out, spec.actions.low, spec.actions.high)
            result = env.step(action)
            total += result.reward
            steps += 1
            obs = result.next_state
            if result.done or result.truncated:
                break
        totals[i] = total
        ends.append((steps, result.done))
    return float(totals.mean()), float(totals.std()), np.stack(starts), ends


def _cartpole_controller() -> Mlp:
    # Q(push right) - Q(push left) follows the pole angle and spin with a
    # little cart drift: some starts balance for 200 steps, others fall.
    w = np.array([[0.05], [0.1], [1.0], [0.3]])
    return Mlp((4, 1, 2), "tanh", "identity", 1.0, [w, np.array([[-1.0, 1.0]])],
               [np.zeros(1), np.zeros(2)])


def _mountaincar_controller() -> Mlp:
    # Throttle along the velocity: pumps energy, reaches the flag at
    # start-dependent steps.
    w = np.array([[0.0], [1.0], [0.0]])
    return Mlp((3, 1, 3), "tanh", "identity", 1.0, [w, np.array([[-1.0, 0.0, 1.0]])],
               [np.zeros(1), np.zeros(3)])


def _pendulum_actor() -> Mlp:
    return init_mlp((4, 16, 1), np.random.default_rng(3), output_activation="tanh",
                    output_scale=2.0)


@pytest.mark.parametrize(
    "env_name, make_net, hindsight, episodes, expected_ends",
    [
        ("cartpole", _cartpole_controller, False, 12, "done-and-truncated"),
        ("cartpole", lambda: init_mlp((4, 8, 2), np.random.default_rng(1)), False, 9, "done"),
        ("mountaincar", _mountaincar_controller, True, 6, "done"),
        ("pendulum", _pendulum_actor, True, 4, "truncated"),
    ],
)
def test_lockstep_evaluate_policy_equals_one_at_a_time(
    env_name, make_net, hindsight, episodes, expected_ends
) -> None:
    net = make_net()
    mean, std, starts, ends = one_at_a_time_reference(
        env_name, net, hindsight, episodes, np.random.default_rng(5)
    )
    spec = env_spec(env_name)
    policy = greedy_policy(
        net,
        scaler_for(spec, hindsight),
        env_class(env_name).native_goal(spec.goal_tolerance) if hindsight else None,
        spec.actions,
    )
    calls: list[np.ndarray] = []

    def counted(observations):
        calls.append(observations.copy())
        return policy(observations)

    got = evaluate_policy(make_env(env_name), counted, episodes, np.random.default_rng(5))
    assert got == (mean, std)
    # One call per round, on the episodes still running in that round,
    # in episode order: the first sees every start state.
    lengths = [steps for steps, _ in ends]
    assert [len(c) for c in calls] == [sum(n > r for n in lengths) for r in range(max(lengths))]
    assert calls[0].tobytes() == starts.tobytes()
    dones = {done for _, done in ends}
    assert len(set(lengths)) > 1 or expected_ends == "truncated"
    assert dones == {
        "done-and-truncated": {True, False}, "done": {True}, "truncated": {False}
    }[expected_ends]


@pytest.mark.parametrize("episodes", [0, -3])
def test_evaluate_policy_rejects_fewer_than_one_episode(episodes) -> None:
    with pytest.raises(ConfigurationError, match="episodes"):
        evaluate_policy(make_env("cartpole"), lambda obs: [0] * len(obs), episodes,
                        np.random.default_rng(0))


@pytest.mark.parametrize("extra, got", [(-1, 4), (1, 6)], ids=["short", "long"])
def test_evaluate_policy_rejects_a_wrong_action_count(extra, got) -> None:
    # Pairing live episodes with actions must not drop an episode or an
    # action: 5 episodes and 4 actions would otherwise score 4 of them.
    with pytest.raises(IntegrityError, match=f"returned {got} actions for 5 live episodes"):
        evaluate_policy(make_env("cartpole"), lambda obs: [0] * (len(obs) + extra), 5,
                        np.random.default_rng(0))


@pytest.mark.parametrize(
    "overrides",
    [
        dict(seed=3, episodes=6, eval_interval=3, eval_episodes=7),
        dict(
            env="pendulum",
            agent="ddpg",
            hindsight=True,
            episodes=2,
            eval_interval=2,
            eval_episodes=3,
            ddpg=DdpgConfig(warmup=64, batch_size=16, hidden_sizes=(16,)),
        ),
        *(
            dict(
                seed=seed, prioritized=True, episodes=20, eval_interval=10, eval_episodes=5,
                buffer_capacity=1000, dqn=DqnConfig(warmup=100),
            )
            for seed in (0, 3)
        ),
    ],
    ids=["cartpole-dqn", "pendulum-ddpg-her", "cartpole-dqn-per-seed0", "cartpole-dqn-per-seed3"],
)
def test_evaluate_checkpoint_reproduces_last_in_training_eval(tmp_path, overrides) -> None:
    """Trajectory-level invariant: re-evaluating a finished run's
    checkpoint with the run's eval settings gives the last row's eval
    numbers exactly. The PER runs learn for long enough that a
    checkpoint of the target Q-network in place of the online one
    scores differently, which the tiny CartPole run does not."""
    cfg = tiny_config(**overrides)
    result = run_to_dir(cfg, tmp_path / "run")
    last = result["records"][-1]
    assert last.episode == cfg.episodes and last.episode % cfg.eval_interval == 0
    got = evaluate_checkpoint(result["checkpoint"], cfg.eval_episodes, cfg.seed)
    assert got == (last.eval_mean, last.eval_std)
    row = (tmp_path / "run" / "run.csv").read_text().splitlines()[-1].split(",")
    assert row[2:4] == [f"{got[0]:.6f}", f"{got[1]:.6f}"]
