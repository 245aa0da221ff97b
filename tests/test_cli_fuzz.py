"""A fuzz gate on the command line: whatever ``replaykit train`` and
``replaykit eval`` are given, they end in exit 0, 1 or 2 with a message,
and nothing else escapes.

``train`` gets every edge value of every ``--set`` key, one at a time,
and then 1-3 overrides per run, each a value of its key's type rendered
by the key's codec, or an edge value. A value that does not parse, or
lies outside its key's documented range, must end in a configuration
error (exit 2). ``eval`` gets checkpoints damaged by truncation, byte
flips, line swaps and meta edits. Examples are derandomized, and every
drawn size, capacity and episode or eval count is small, so the gate is
quick and the same on every run.
"""

from __future__ import annotations

import contextlib
import io
import math
import warnings
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replaykit import config
from replaykit.agents import AGENTS
from replaykit.cli import main
from replaykit.config import RunConfig
from replaykit.envs import env_names, env_spec
from replaykit.errors import ConfigurationError

EDGES = ["0", "-1", "-0", "nan", "inf", "-inf", "1e308", "", "junk", "1,2"]

# Tiny budgets for every (env, agent); a drawn override replaces one.
BASE = {
    "episodes": "1",
    "eval_interval": "1",
    "eval_episodes": "1",
    "buffer_capacity": "64",
    "dqn_warmup": "8",
    "dqn_batch_size": "4",
    "dqn_hidden_sizes": "8",
    "ddpg_warmup": "8",
    "ddpg_batch_size": "4",
    "ddpg_hidden_sizes": "8",
}

# Each agent with each env it can drive.
PAIRS = [
    (env, agent)
    for env in env_names()
    for agent, cls in sorted(AGENTS.items())
    if isinstance(env_spec(env).actions, cls.ACTIONS)
]

# The flags set env, agent and seed after the overrides, so the fuzz
# draws those three as flags.
KEYS = sorted(set(config._KEYS) - {"env", "agent", "seed"})


def _at_least(low):
    return lambda v: v >= low


def _within(low, high):
    return lambda v: low <= v <= high


def _positive(v) -> bool:
    return math.isfinite(v) and v > 0.0


# The documented range of every key that has one; NaN is outside all.
RANGES = {
    "episodes": _at_least(0),
    **dict.fromkeys(
        ["eval_interval", "eval_episodes", "dqn_epsilon_decay_steps",
         "dqn_target_update_period", "dqn_batch_size", "dqn_warmup", "ddpg_batch_size",
         "ddpg_warmup"],
        _at_least(1),
    ),
    "buffer_capacity": lambda v: v is None or v >= 1,
    "goal_tolerance": lambda v: v is None or _positive(v),
    **dict.fromkeys(
        ["dqn_gamma", "ddpg_gamma", "dqn_epsilon_start", "dqn_epsilon_end", "per_alpha",
         "per_beta"],
        _within(0.0, 1.0),
    ),
    **dict.fromkeys(
        ["dqn_learning_rate", "ddpg_actor_lr", "ddpg_critic_lr", "per_epsilon",
         "per_max_priority"],
        _positive,
    ),
    **dict.fromkeys(["dqn_hidden_sizes", "ddpg_hidden_sizes"], lambda v: all(n >= 1 for n in v)),
    "ddpg_tau": lambda v: 0.0 < v <= 1.0,
    "ddpg_ou_theta": lambda v: 0.0 < v < 2.0,
    "ddpg_ou_sigma": lambda v: math.isfinite(v) and v >= 0.0,
    "ddpg_ou_mu": math.isfinite,
}

_SMALL_INT = st.integers(-1, 4)
_SMALL_FLOAT = st.sampled_from([0.0, 1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(-3.0, 3.0)
# Values of each annotation, before the codec renders them.
TYPED = {
    "bool": st.booleans(),
    "int": _SMALL_INT,
    "float": _SMALL_FLOAT,
    "int | None": st.none() | _SMALL_INT,
    "float | None": st.none() | _SMALL_FLOAT,
    "tuple[int, ...]": st.lists(st.integers(0, 8), max_size=2).map(tuple),
}


def annotation(key: str) -> str:
    group, name, _ = config._KEYS[key]
    owner = RunConfig if group is None else type(getattr(RunConfig(), group))
    return next(f.type for f in fields(owner) if f.name == name)


def values(key: str):
    render = config._KEYS[key][2][1]
    return TYPED[annotation(key)].map(render) | st.sampled_from(EDGES)


@st.composite
def overrides(draw) -> tuple[tuple[str, str], ...]:
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=3, unique=True))
    return tuple((key, draw(values(key))) for key in keys)


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``, with argparse's exit as
    its code; any other exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2 and err.getvalue().startswith("usage: ")
    return code, err.getvalue()


def check_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ")
    elif code == 2:
        assert err.startswith(("configuration error: ", "usage: "))


def expected_codes(pairs) -> set[int]:
    """{2} when an override does not parse or lies outside its key's
    range; else any exit code."""
    for key, raw in pairs:
        parse = config._KEYS[key][2][0]
        try:
            value = parse(raw)
        except ConfigurationError:
            return {2}
        if key in RANGES and not RANGES[key](value):
            return {2}
    return {0, 1, 2}


def check_train(out, env: str, agent: str, pairs, seed: int = 0) -> None:
    argv = ["train", "--env", env, "--agent", agent, "--seed", str(seed), "--out", str(out)]
    for key, value in [*BASE.items(), *pairs]:
        argv += ["--set", f"{key}={value}"]
    code, err = run(argv)
    check_exit(code, err)
    assert code in expected_codes(pairs), (env, agent, pairs, code, err)


def test_train_takes_every_edge_value_of_every_key(tmp_path) -> None:
    # An agent's own keys on the env it trains fastest on; the rest on
    # every (env, agent). A value that overflows the run must end it with
    # the typed error alone, without a numpy warning printed ahead of it.
    fastest = {"dqn": [("cartpole", "dqn")], "ddpg": [("pendulum", "ddpg")]}
    for i, key in enumerate(KEYS):
        for env, agent in fastest.get(key.split("_")[0], PAIRS):
            for j, value in enumerate(EDGES):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    check_train(tmp_path / f"{i}-{env}-{j}", env, agent, [(key, value)])
                assert [str(w.message) for w in caught] == [], (env, agent, key, value)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(env_agent=st.sampled_from(PAIRS), pairs=overrides(), seed=st.integers(0, 2**64 - 1))
def test_train_takes_any_overrides(tmp_path_factory, env_agent, pairs, seed) -> None:
    check_train(tmp_path_factory.mktemp("run"), *env_agent, pairs, seed)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory) -> list[bytes]:
    """Checkpoints of a tiny CartPole DQN run and a tiny Pendulum DDPG
    run with hindsight, whose meta lines carry a goal tolerance."""
    texts = []
    for env, agent, flags in (("cartpole", "dqn", []), ("pendulum", "ddpg", ["--hindsight"])):
        out = tmp_path_factory.mktemp("checkpoint")
        argv = ["train", "--env", env, "--agent", agent, "--out", str(out), *flags]
        for key, value in BASE.items():
            argv += ["--set", f"{key}={value}"]
        assert run(argv)[0] == 0
        texts.append((out / "checkpoint.txt").read_bytes())
    return texts


@st.composite
def damage(draw, data: bytes) -> bytes:
    """``data`` truncated, with bytes flipped, with two lines swapped, or
    with a meta line edited, added or dropped."""
    kind = draw(st.sampled_from(["truncate", "flip", "swap", "meta"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        flipped = bytearray(data)
        for _ in range(draw(st.integers(1, 3))):
            flipped[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(flipped)
    lines = data.split(b"\n")
    where = st.integers(0, len(lines) - 1)
    if kind == "swap":
        i, j = draw(where), draw(where)
        lines[i], lines[j] = lines[j], lines[i]
        return b"\n".join(lines)
    key = draw(st.sampled_from(["env", "agent", "hindsight", "goal_tolerance", "junk"]))
    value = draw(st.sampled_from([*env_names(), *AGENTS, "true", "false", *EDGES]))
    metas = [i for i, line in enumerate(lines) if line.startswith(b"meta ")]
    i = draw(st.sampled_from(metas))
    edit = draw(st.sampled_from(["replace", "add", "drop"]))
    line = f"meta {key} {value}".encode()
    if edit == "replace":
        lines[i] = line
    elif edit == "add":
        lines.insert(i, line)
    else:
        del lines[i]
    return b"\n".join(lines)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), which=st.integers(0, 1), episodes=st.integers(1, 2),
       seed=st.integers(0, 2**64 - 1))
def test_eval_takes_damaged_checkpoints(tmp_path_factory, checkpoints, data, which, episodes,
                                        seed) -> None:
    path = tmp_path_factory.mktemp("eval") / "checkpoint.txt"
    path.write_bytes(data.draw(damage(checkpoints[which])))
    code, err = run(["eval", "--checkpoint", str(path), "--episodes", str(episodes),
                     "--seed", str(seed)])
    check_exit(code, err)
