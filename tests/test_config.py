"""The flat key table derived from the config dataclasses."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replaykit import config
from replaykit.agents import DdpgConfig, DqnConfig
from replaykit.config import RunConfig, config_from_mapping, config_to_mapping
from replaykit.envs import env_names
from replaykit.errors import ConfigurationError
from replaykit.prioritized import PerConfig

unit = st.floats(0.0, 1.0)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
count = st.integers(1, 10**9)
sizes = st.lists(st.integers(1, 4096), max_size=4).map(tuple)

dqn_configs = st.builds(
    lambda eps, **kw: DqnConfig(epsilon_end=eps[0], epsilon_start=eps[1], **kw),
    st.tuples(unit, unit).map(sorted),
    gamma=unit,
    epsilon_decay_steps=count,
    target_update_period=count,
    batch_size=count,
    learning_rate=positive,
    warmup=count,
    hidden_sizes=sizes,
)
ddpg_configs = st.builds(
    DdpgConfig,
    gamma=unit,
    tau=st.floats(0.0, 1.0, exclude_min=True),
    actor_lr=positive,
    critic_lr=positive,
    batch_size=count,
    warmup=count,
    ou_theta=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    ou_sigma=st.floats(min_value=0.0, allow_infinity=False),
    ou_mu=finite,
    hidden_sizes=sizes,
)
per_configs = st.builds(
    PerConfig, alpha=unit, beta=unit, epsilon=positive, max_priority=positive
)
run_configs = st.builds(
    RunConfig,
    env=st.sampled_from(env_names()),
    agent=st.sampled_from(["dqn", "ddpg"]),
    combined=st.booleans(),
    prioritized=st.booleans(),
    hindsight=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    episodes=st.integers(0, 10**9),
    eval_interval=count,
    eval_episodes=count,
    buffer_capacity=st.none() | count,
    goal_tolerance=st.none() | positive,
    dqn=dqn_configs,
    ddpg=ddpg_configs,
    per=per_configs,
)


@settings(max_examples=300, deadline=None)
@given(run_configs)
@example(RunConfig(dqn=DqnConfig(hidden_sizes=())))  # a linear network renders as ""
def test_mapping_round_trip_over_valid_configs(cfg) -> None:
    mapping = config_to_mapping(cfg)
    assert all(isinstance(value, str) for value in mapping.values())
    assert config_from_mapping(mapping) == cfg


def test_every_field_is_reached_by_exactly_one_key() -> None:
    groups = {"dqn": DqnConfig, "ddpg": DdpgConfig, "per": PerConfig}
    expected = {(None, f.name) for f in fields(RunConfig) if f.name not in groups}
    for group, cls in groups.items():
        expected |= {(group, f.name) for f in fields(cls)}
    reached = [(group, name) for group, name, _ in config._KEYS.values()]
    assert len(reached) == len(set(reached))
    assert set(reached) == expected
    for key, (group, name, _) in config._KEYS.items():
        assert key == (name if group is None else f"{group}_{name}")


def test_annotation_without_codec_fails_when_the_table_is_built() -> None:
    # The table is built at import, so a field like these would stop
    # `import replaykit` instead of failing on the first parse.
    @dataclass(frozen=True)
    class Group:
        ratio: complex = 0j

    @dataclass(frozen=True)
    class NestedBad:
        seed: int = 0
        group: Group = field(default_factory=Group)

    @dataclass(frozen=True)
    class TopBad:
        seed: int = 0
        scale: complex = 1j

    with pytest.raises(TypeError, match="'group_ratio': no codec for annotation 'complex'"):
        config._key_table(NestedBad)
    with pytest.raises(TypeError, match="'scale': no codec for annotation 'complex'"):
        config._key_table(TopBad)
    assert config._key_table(RunConfig) == config._KEYS


@pytest.mark.parametrize(
    "key, raw, reason",
    [
        ("dqn_batch_size", "many", "expected an integer, got 'many'"),
        ("seed", "1.5", "expected an integer, got '1.5'"),
        ("hindsight", "maybe", "expected a boolean, got 'maybe'"),
        ("per_beta", "", "expected a number, got ''"),
        ("ddpg_hidden_sizes", "8,x", "expected an integer, got 'x'"),
        ("buffer_capacity", "lots", "expected an integer, got 'lots'"),
    ],
)
def test_parse_error_is_prefixed_with_its_key(key, raw, reason) -> None:
    with pytest.raises(ConfigurationError) as excinfo:
        config_from_mapping({"episodes": "3", key: raw})
    assert str(excinfo.value) == f"{key}: {reason}"
