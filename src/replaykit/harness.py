"""Experiment harness: wires environments, agents, and replay
strategies together and runs deterministic training loops.

A run is fully described by a :class:`RunConfig` plus nothing else.
The seed is split into independent streams (environment, network init,
exploration, replay sampling, evaluation), so enabling one strategy
never perturbs the random draws of another part of the system, and a
(config, seed) pair reproduces its CSV byte for byte.

Agents are reached only through the interface that
:mod:`replaykit.agents` describes: the class comes from its registry,
exploration happens inside ``act``, evaluation and checkpoints use
``networks()`` and ``POLICY_NET``. Nothing here branches on the agent
kind.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .agents import AGENTS, greedy_policy, scaler_for
from .config import (
    RunConfig,
    check_seed,
    config_from_mapping,
    config_to_mapping,
    effective_mapping,
    parse_config_file,  # noqa: F401  (re-exported: callers import it from here)
    validate_config,
)
from .envs import EnvSpec, env_class, env_names, make_env
from .errors import CheckpointError, ConfigurationError, IntegrityError
from .files import write_atomic
from .hindsight import augment_observation, relabeled_transitions
from .nn import load_checkpoint, save_checkpoint
from .prioritized import PerConfig, PrioritizedSampler
from .replay import Batch, ReplayBuffer, sample_combined, sample_uniform

CSV_HEADER = "episode,train_reward,eval_mean,eval_std,steps"

# Stream indices for seed splitting.
_STREAMS = ("env", "init", "explore", "sample")
_EVAL_TAG = 0x45564131  # distinct entropy word for evaluation rngs


class ReplayStack:
    """Base ring buffer with optional prioritized sampling and optional
    forced inclusion of the newest transition (combined replay)."""

    def __init__(
        self,
        capacity: int,
        combined: bool,
        per_config: PerConfig | None,
        rng: np.random.Generator,
    ) -> None:
        self.buffer = ReplayBuffer(capacity)
        self.combined = combined
        self.per = PrioritizedSampler(capacity, per_config) if per_config else None
        self.rng = rng

    def __len__(self) -> int:
        return len(self.buffer)

    def append(self, state, action, reward, next_state, done) -> int:
        index = self.buffer.append(state, action, reward, next_state, done)
        if self.per is not None:
            self.per.insert(index)
        return index

    def extend(self, states, actions, rewards, next_states, dones) -> np.ndarray:
        """Store columns of transitions as one write, with the result of
        one :meth:`append` per row."""
        slots = self.buffer.extend(states, actions, rewards, next_states, dones)
        if self.per is not None:
            self.per.insert_many(slots)
        return slots

    def sample(self, batch_size: int) -> Batch:
        """One batch from the configured samplers. Each sampler returns
        filled slots only, so their rows are gathered unchecked."""
        inner = self.per.sample if self.per is not None else sample_uniform
        if self.combined:
            indices, weights = sample_combined(self.buffer, batch_size, inner, self.rng)
        else:
            indices, weights = inner(self.buffer, batch_size, self.rng)
        return self.buffer.gather_filled(indices, weights)

    def update_priorities(self, indices, td_errors) -> None:
        if self.per is not None:
            self.per.update_priorities(indices, td_errors)


@dataclass
class TrainRecord:
    """Per-episode summary row. ``eval_mean`` / ``eval_std`` carry the
    most recent frozen-policy evaluation (NaN before the first one)."""

    episode: int
    train_reward: float
    eval_mean: float
    eval_std: float
    steps: int


@dataclass
class Experiment:
    """A fully wired run, ready for :func:`train`."""

    config: RunConfig
    env: object
    spec: EnvSpec
    agent: object
    stack: ReplayStack
    # Both None unless the run relabels goals.
    goal_tolerance: float | None
    native_goal: np.ndarray | None
    env_rng: np.random.Generator
    explore_rng: np.random.Generator


def build_run(cfg: RunConfig) -> Experiment:
    """Construct environment, agent, and replay stack from a config."""
    validate_config(cfg)
    env = make_env(cfg.env)
    spec = env.spec
    tolerance = cfg.resolved_goal_tolerance() if cfg.hindsight else None
    scaler = scaler_for(spec, cfg.hindsight)
    streams = np.random.SeedSequence(cfg.seed).spawn(len(_STREAMS))
    rngs = {name: np.random.default_rng(ss) for name, ss in zip(_STREAMS, streams)}
    # The agent's hyperparameters sit in the RunConfig field named after it.
    agent = AGENTS[cfg.agent](spec.actions, getattr(cfg, cfg.agent), scaler, rngs["init"])
    stack = ReplayStack(
        capacity=cfg.resolved_buffer_capacity(),
        combined=cfg.combined,
        per_config=cfg.per if cfg.prioritized else None,
        rng=rngs["sample"],
    )
    return Experiment(
        config=cfg,
        env=env,
        spec=spec,
        agent=agent,
        stack=stack,
        goal_tolerance=tolerance,
        native_goal=None if tolerance is None else env.native_goal(tolerance),
        env_rng=rngs["env"],
        explore_rng=rngs["explore"],
    )


def evaluate_policy(env, policy, episodes: int, rng: np.random.Generator) -> tuple[float, float]:
    """Mean and population std of total episode reward under a frozen
    policy with exploration disabled.

    Plays ``episodes`` episodes in lockstep, each on a fresh instance of
    ``env``'s class, reset in episode order from ``rng``. The current
    observations live in one (episodes, obs_dim) array, one row per
    episode, and every step writes its next state into that episode's
    row. Every round makes one ``policy`` call on the rows of the live
    episodes, in episode order, and steps each of them with its action,
    so an episode's rewards add up in step order exactly as when the
    episodes are played one at a time. Raises ConfigurationError when
    ``episodes`` is below 1 and IntegrityError when the policy returns
    a different number of actions than there are live episodes.
    """
    if episodes < 1:
        raise ConfigurationError(f"eval episodes must be >= 1, got {episodes}")
    envs = [type(env)() for _ in range(episodes)]
    obs = np.stack([e.reset(rng) for e in envs])
    totals = [0.0] * episodes
    live = list(range(episodes))
    while live:
        actions = policy(obs[live])
        if len(actions) != len(live):
            raise IntegrityError(
                f"policy returned {len(actions)} actions for {len(live)} live episodes"
            )
        still_live = []
        for i, action in zip(live, actions):
            result = envs[i].step(action)
            totals[i] += result.reward
            obs[i] = result.next_state
            if not (result.done or result.truncated):
                still_live.append(i)
        live = still_live
    totals = np.array(totals)
    return float(totals.mean()), float(totals.std())


def _eval_rng(seed: int) -> np.random.Generator:
    # One fixed generator construction per evaluation round: every round
    # (and every strategy at the same seed) scores against the same
    # battery of start states, so eval curves are comparable and the
    # convergence check cannot flip on re-rolled starts.
    return np.random.default_rng([seed, _EVAL_TAG])


def train(exp: Experiment) -> list[TrainRecord]:
    """Run episodes until the limit or until a frozen-policy evaluation
    meets the environment's solve threshold.

    Each episode starts with ``agent.begin_episode()`` after the env
    reset. Each step: act (the agent explores on its own), store, and
    once the warm-up count is met, draw one batch, apply one agent
    update, and feed the TD errors back to the priority sampler. Under
    hindsight every state is goal-augmented once, when the env returns
    it, and the agent acts on the array the buffer stores. When the
    episode closes, goal relabeling reads its steps back with
    ``ReplayBuffer.newest_rows`` and stores the relabeled copies in one
    write. Evaluation reads the agent's ``POLICY_NET`` network.
    """
    cfg = exp.config
    agent = exp.agent
    goal = exp.native_goal
    policy = greedy_policy(
        agent.networks()[agent.POLICY_NET], agent.scaler, goal, exp.spec.actions
    )
    records: list[TrainRecord] = []
    env_steps = 0
    eval_mean = eval_std = math.nan
    for episode in range(1, cfg.episodes + 1):
        obs = augment_observation(exp.env.reset(exp.env_rng), goal)
        agent.begin_episode()
        episode_start = env_steps
        episode_reward = 0.0
        while True:
            action = agent.act(obs, exp.explore_rng)
            result = exp.env.step(action)
            next_obs = augment_observation(result.next_state, goal)
            exp.stack.append(obs, action, result.reward, next_obs, result.done)
            env_steps += 1
            episode_reward += result.reward
            if len(exp.stack) >= agent.config.warmup:
                batch = exp.stack.sample(agent.config.batch_size)
                td_errors = agent.update(batch)
                exp.stack.update_priorities(batch.indices, td_errors)
            obs = next_obs
            if result.done or result.truncated:
                break
        if cfg.hindsight:
            rows = exp.stack.buffer.newest_rows(env_steps - episode_start)
            exp.stack.extend(*relabeled_transitions(rows, type(exp.env), exp.goal_tolerance))
        fresh_eval = episode % cfg.eval_interval == 0
        if fresh_eval:
            eval_mean, eval_std = evaluate_policy(
                exp.env, policy, cfg.eval_episodes, _eval_rng(cfg.seed)
            )
        records.append(
            TrainRecord(episode, float(episode_reward), eval_mean, eval_std, env_steps)
        )
        if fresh_eval and _solved(exp.spec, eval_mean):
            break
    return records


def _solved(spec: EnvSpec, eval_mean: float) -> bool:
    # NaN (no evaluation yet) compares False.
    return spec.solve_reward is not None and eval_mean >= spec.solve_reward


def check_convergence(records: list[TrainRecord], spec: EnvSpec) -> int | None:
    """Episode of the first evaluation meeting the solve threshold, or
    None when the task has no threshold or no evaluation met it."""
    return next((r.episode for r in records if _solved(spec, r.eval_mean)), None)


def emit_csv(records: list[TrainRecord], path) -> None:
    """Write records with a fixed header and fixed decimal formatting,
    so identical records always produce identical bytes."""
    rows = (
        f"{r.episode},{r.train_reward:.6f},{r.eval_mean:.6f},"
        f"{r.eval_std:.6f},{r.steps}\n"
        for r in records
    )
    write_atomic(path, itertools.chain([CSV_HEADER + "\n"], rows), "ascii")


def write_manifest(path, cfg: RunConfig, extra: dict[str, str] | None = None) -> None:
    mapping = dict(effective_mapping(cfg))
    mapping.update(extra or {})
    write_atomic(path, (f"{key}={mapping[key]}\n" for key in sorted(mapping)), "utf-8")


# Config keys a checkpoint carries as meta lines, enough to rebuild its
# greedy policy.
_META_KEYS = ("env", "agent", "hindsight", "goal_tolerance")


def save_run_checkpoint(path, exp: Experiment) -> None:
    # goal_tolerance is the one in force: resolved under hindsight, else empty.
    mapping = config_to_mapping(replace(exp.config, goal_tolerance=exp.goal_tolerance))
    meta = {key: mapping[key] for key in _META_KEYS}
    save_checkpoint(path, exp.agent.networks(), meta)


def evaluate_checkpoint(path, episodes: int, seed: int = 0) -> tuple[float, float]:
    """Reload a checkpoint and run frozen-policy evaluation episodes.

    Raises CheckpointError when the file lacks a known env, agent or
    the agent's policy network, when its meta lines contradict each
    other or do not parse, or when the policy network's input or output
    size does not fit the env. Raises ConfigurationError when
    ``episodes`` is below 1 or ``seed`` does not fit in u64."""
    check_seed(seed)
    nets, meta = load_checkpoint(path)
    env_name = meta.get("env")
    agent_kind = meta.get("agent")
    policy_net = AGENTS[agent_kind].POLICY_NET if agent_kind in AGENTS else None
    if env_name not in env_names() or policy_net not in nets:
        raise CheckpointError(
            f"{path}: needs a known env, agent and policy network; has env "
            f"{env_name!r}, agent {agent_kind!r}, networks {sorted(nets)}"
        )
    try:
        cfg = config_from_mapping({key: meta[key] for key in _META_KEYS if key in meta})
        validate_config(cfg)
    except ConfigurationError as exc:
        raise CheckpointError(f"{path}: bad meta lines: {exc}") from None
    env = env_class(env_name)
    goal = env.native_goal(cfg.resolved_goal_tolerance()) if cfg.hindsight else None
    try:
        policy = greedy_policy(
            nets[policy_net], scaler_for(env.spec, cfg.hindsight), goal, env.spec.actions
        )
    except ConfigurationError as exc:
        raise CheckpointError(f"{path}: network {policy_net!r} does not fit: {exc}") from None
    return evaluate_policy(env(), policy, episodes, _eval_rng(seed))


def run_to_dir(cfg: RunConfig, out_dir) -> dict[str, object]:
    """Train one run and write run.csv, manifest.txt, checkpoint.txt.

    Returns a small result summary (records, convergence episode,
    file paths). A config that ``build_run`` rejects raises
    ConfigurationError before ``out_dir`` is created.
    """
    exp = build_run(cfg)
    os.makedirs(out_dir, exist_ok=True)
    started = time.monotonic()
    records = train(exp)
    total_ms = int((time.monotonic() - started) * 1000)
    converged = check_convergence(records, exp.spec)
    csv_path = os.path.join(out_dir, "run.csv")
    manifest_path = os.path.join(out_dir, "manifest.txt")
    checkpoint_path = os.path.join(out_dir, "checkpoint.txt")
    emit_csv(records, csv_path)
    write_manifest(
        manifest_path,
        cfg,
        extra={
            "converged_at": "" if converged is None else str(converged),
            "total_wallclock_ms": str(total_ms),
        },
    )
    save_run_checkpoint(checkpoint_path, exp)
    return {
        "records": records,
        "converged_at": converged,
        "csv": csv_path,
        "manifest": manifest_path,
        "checkpoint": checkpoint_path,
    }


# (combined, hindsight, prioritized) in the order of the usual
# strategy-combination tables; ``RunConfig.strategy_name`` names each.
SWEEP_STRATEGIES: tuple[tuple[bool, bool, bool], ...] = (
    (False, False, False),
    (True, False, False),
    (False, False, True),
    (False, True, False),
    (True, False, True),
    (True, True, False),
    (False, True, True),
    (True, True, True),
)

UNSUPPORTED = "unsupported"
NO_CONVERGENCE = "no-convergence-within-limit"
CONVERGED = "converged"


def sweep(cfg: RunConfig, out_dir) -> list[tuple[str, str, int | None]]:
    """Run every strategy combination for one (env, agent, seed).

    Combinations the environment cannot support are reported as
    ``unsupported`` rather than silently skipped; runs that finish the
    episode budget without meeting the solve threshold (or whose env
    has none) report ``no-convergence-within-limit``. The base config is
    checked without its strategy flags, which each combination sets.
    """
    validate_config(replace(cfg, combined=False, hindsight=False, prioritized=False))
    os.makedirs(out_dir, exist_ok=True)
    rows: list[tuple[str, str, int | None]] = []
    for combined, hindsight, prioritized in SWEEP_STRATEGIES:
        combo = replace(
            cfg, combined=combined, hindsight=hindsight, prioritized=prioritized
        )
        name = combo.strategy_name()
        try:
            validate_config(combo)
        except ConfigurationError:
            rows.append((name, UNSUPPORTED, None))
            continue
        result = run_to_dir(combo, os.path.join(out_dir, name))
        converged = result["converged_at"]
        if converged is None:
            rows.append((name, NO_CONVERGENCE, None))
        else:
            rows.append((name, CONVERGED, converged))
    lines = (
        f"{name},{status},{'' if episode is None else episode}\n"
        for name, status, episode in rows
    )
    write_atomic(
        os.path.join(out_dir, "summary.csv"),
        itertools.chain(["strategy,status,episodes_to_convergence\n"], lines),
        "ascii",
    )
    return rows
