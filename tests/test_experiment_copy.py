"""All of a run's state lives in its Experiment: a deep copy or a
pickle round trip taken mid-run continues bit for bit like the
original and shares no memory with it."""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from replaykit.harness import build_run, config_from_mapping, train
from replaykit.nn import AdamState, Mlp

_TINY = {"seed": "3", "buffer_capacity": "300", "eval_interval": "4", "eval_episodes": "2"}

# name -> (config mapping, episodes before the copy, episodes after it)
RUNS = {
    "cartpole-dqn-baseline": ({"env": "cartpole", "agent": "dqn"}, 10, 6),
    "cartpole-dqn-cer": ({"env": "cartpole", "agent": "dqn", "combined": "true"}, 10, 6),
    "cartpole-dqn-per": ({"env": "cartpole", "agent": "dqn", "prioritized": "true"}, 10, 6),
    "cartpole-dqn-cper": (
        {"env": "cartpole", "agent": "dqn", "combined": "true", "prioritized": "true"},
        10,
        6,
    ),
    "pendulum-ddpg-hper": (
        {"env": "pendulum", "agent": "ddpg", "hindsight": "true", "prioritized": "true"},
        1,
        2,
    ),
}


def _fields(prefix: str, obj) -> dict[str, object]:
    """The arrays, networks, Adam states and scalars among ``obj``'s
    attributes, as comparable values keyed by ``prefix.name``."""
    out: dict[str, object] = {}
    for name, value in vars(obj).items():
        key = f"{prefix}.{name}"
        if isinstance(value, np.ndarray):
            out[key] = (value.dtype, value.shape, value.tobytes())
        elif isinstance(value, Mlp):
            out[key] = value.params.tobytes()
        elif isinstance(value, AdamState):
            out[key] = (value.m.tobytes(), value.v.tobytes(), value.step)
        elif isinstance(value, (bool, int, float)):
            out[key] = repr(value)
    return out


def run_state(exp, records) -> dict[str, object]:
    """The records and every piece of state a run carries forward: each
    network's parameters, the Adam moments, the exploration state, the
    stack's columns, the PER store, and every random stream."""
    agent, stack = exp.agent, exp.stack
    state = {"records": repr(records)}
    state.update(_fields("agent", agent))
    if hasattr(agent, "pair"):
        state["pair"] = agent.pair.params.tobytes()
    if hasattr(agent, "noise"):
        state.update(_fields("noise", agent.noise))
    state.update(_fields("env", exp.env))
    state.update(_fields("buffer", stack.buffer))
    if stack.per is not None:
        state["per.nodes"] = stack.per.tree.nodes.tobytes()
        state["per.max_raw"] = repr(stack.per._max_raw)
    for name in ("env_rng", "explore_rng"):
        state[name] = repr(getattr(exp, name).bit_generator.state)
    state["stack.rng"] = repr(stack.rng.bit_generator.state)
    return state


# How a run is copied; a deep-copied run's test id is the run's name
# alone, a pickled run's ends in "-pickle".
COPIES = {
    "": copy.deepcopy,
    "-pickle": lambda exp: pickle.loads(pickle.dumps(exp)),
}


def continue_run(exp, episodes: int):
    exp.config = replace(exp.config, episodes=episodes)
    return train(exp)


@pytest.mark.parametrize(
    "name, how",
    [pytest.param(name, how, id=name + how) for name in sorted(RUNS) for how in COPIES],
)
def test_deep_copy_continues_like_the_original(name, how) -> None:
    settings, before, after = RUNS[name]
    warmup = {f"{settings['agent']}_warmup": "64"}
    cfg = config_from_mapping({**settings, **_TINY, **warmup, "episodes": str(before)})
    exp = build_run(cfg)
    train(exp)
    assert len(exp.stack) >= 64, f"{name}: the copy is taken before the warm-up ends"
    twin = COPIES[how](exp)
    records = continue_run(exp, after)
    twin_records = continue_run(twin, after)
    original = run_state(exp, records)
    copied = run_state(twin, twin_records)
    assert original.keys() == copied.keys()
    differ = [key for key in original if original[key] != copied[key]]
    assert not differ, f"{name}: the copy diverged in {differ}"
    continue_run(twin, 1)
    assert run_state(exp, records) == original, f"{name}: training the copy moved the original"
