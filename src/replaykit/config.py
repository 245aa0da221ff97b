"""Run configuration and its flat ``key=value`` form.

A :class:`RunConfig` fully describes a run. Its flat keys are derived
from the dataclass fields: a top-level field is its own key, and a
field of a nested hyperparameter group is ``<group>_<field>`` (for
example ``dqn_learning_rate``). Each field's annotation picks how its
value is parsed and rendered, so adding a field adds its key; a field
whose annotation has no codec fails when this module is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .agents import AGENTS, DdpgConfig, DqnConfig
from .envs import DiscreteActions, env_class
from .errors import ConfigurationError
from .prioritized import PerConfig


def check_seed(seed: int) -> None:
    if seed < 0 or seed >= 2**64:
        raise ConfigurationError(f"seed must fit in u64, got {seed}")


@dataclass(frozen=True)
class RunConfig:
    """Everything that defines a run, flat-file serializable.

    ``buffer_capacity`` and ``goal_tolerance`` default to None meaning
    "resolve from the agent/environment defaults" (the agent class's
    ``BUFFER_CAPACITY``; the environment's goal tolerance). Each
    agent's hyperparameters sit in the field named after it.
    """

    env: str = "cartpole"
    agent: str = "dqn"
    combined: bool = False
    prioritized: bool = False
    hindsight: bool = False
    seed: int = 0
    episodes: int = 500
    eval_interval: int = 50
    eval_episodes: int = 100
    buffer_capacity: int | None = None
    goal_tolerance: float | None = None
    dqn: DqnConfig = field(default_factory=DqnConfig)
    ddpg: DdpgConfig = field(default_factory=DdpgConfig)
    per: PerConfig = field(default_factory=PerConfig)

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if self.agent not in AGENTS:
            raise ConfigurationError(f"unknown agent {self.agent!r}; choose {' or '.join(AGENTS)}")
        if self.episodes < 0:
            raise ConfigurationError(f"episodes must be >= 0, got {self.episodes}")
        if self.eval_interval < 1 or self.eval_episodes < 1:
            raise ConfigurationError("eval_interval and eval_episodes must be >= 1")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ConfigurationError("buffer_capacity must be >= 1 when given")
        tol = self.goal_tolerance
        if tol is not None and not (math.isfinite(tol) and tol > 0.0):
            raise ConfigurationError(f"goal_tolerance must be finite and > 0, got {tol}")

    def resolved_buffer_capacity(self) -> int:
        if self.buffer_capacity is not None:
            return self.buffer_capacity
        return AGENTS[self.agent].BUFFER_CAPACITY

    def resolved_goal_tolerance(self) -> float | None:
        if self.goal_tolerance is not None:
            return float(self.goal_tolerance)
        return env_class(self.env).spec.goal_tolerance

    def strategy_name(self) -> str:
        parts = []
        if self.combined:
            parts.append("c")
        if self.hindsight:
            parts.append("h")
        if self.prioritized:
            parts.append("p")
        return "".join(parts) + "er" if parts else "baseline"


def validate_config(cfg: RunConfig) -> None:
    """Reject impossible (env, agent, strategy) combinations with the
    conflicting pair named, a goal tolerance the env's native goal
    cannot honor, and a buffer too small to reach the warm-up."""
    try:
        env = env_class(cfg.env)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    spec = env.spec
    if not isinstance(spec.actions, AGENTS[cfg.agent].ACTIONS):
        kind = "discrete" if isinstance(spec.actions, DiscreteActions) else "continuous"
        raise ConfigurationError(
            f"agent '{cfg.agent}' cannot drive env '{cfg.env}': {kind} actions"
        )
    if cfg.hindsight and spec.goal_dim == 0:
        raise ConfigurationError(
            f"strategy 'hindsight' is unsupported on env '{cfg.env}': no goal space"
        )
    if spec.goal_dim > 0:
        env.native_goal(cfg.resolved_goal_tolerance())
    # Learning waits for warmup stored rows, and the buffer never holds
    # more than its capacity.
    warmup = getattr(cfg, cfg.agent).warmup
    if cfg.resolved_buffer_capacity() < warmup:
        raise ConfigurationError(
            f"buffer_capacity {cfg.resolved_buffer_capacity()} is below "
            f"{cfg.agent}_warmup {warmup}: the agent would never learn"
        )


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"expected a boolean, got {raw!r}")


def _parse_int(raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigurationError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        return float(raw.strip())
    except ValueError:
        raise ConfigurationError(f"expected a number, got {raw!r}") from None


def _parse_sizes(raw: str) -> tuple[int, ...]:
    # Empty means no hidden layer, the rendering of ().
    return tuple(_parse_int(p) for p in raw.replace(",", " ").split())


def _optional(codec):
    """Codec for ``<type> | None``: empty, ``none`` and ``auto`` mean
    None, which renders as the empty string."""
    parse, render = codec

    def parse_optional(raw: str):
        return None if raw.strip().lower() in ("", "none", "auto") else parse(raw)

    return parse_optional, lambda value: "" if value is None else render(value)


_FLOAT = (_parse_float, repr)
_INT = (_parse_int, str)

# Annotation string -> (parse, render). Floats render with repr, so a
# rendered value parses back to the same float.
_CODECS = {
    "str": (str, str),
    "bool": (_parse_bool, lambda value: "true" if value else "false"),
    "int": _INT,
    "float": _FLOAT,
    "int | None": _optional(_INT),
    "float | None": _optional(_FLOAT),
    "tuple[int, ...]": (_parse_sizes, lambda value: ",".join(map(str, value))),
}


def _key_table(root) -> dict[str, tuple[str | None, str, tuple]]:
    """Flat key -> (group or None, field name, codec) for every field of
    the dataclass ``root`` and of its dataclass-valued fields. Raises
    TypeError for a field whose annotation has no codec."""
    table: dict[str, tuple[str | None, str, tuple]] = {}
    for top in fields(root):
        group = top.default_factory
        if is_dataclass(group):
            entries = [(f"{top.name}_{f.name}", top.name, f) for f in fields(group)]
        else:
            entries = [(top.name, None, top)]
        for key, group, f in entries:
            if f.type not in _CODECS:
                raise TypeError(f"config field {key!r}: no codec for annotation {f.type!r}")
            table[key] = (group, f.name, _CODECS[f.type])
    return table


_KEYS = _key_table(RunConfig)


def config_from_mapping(mapping: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    """Build a RunConfig from flat key=value strings, starting from
    ``base`` (or defaults). Nested hyperparameters use the prefixes
    dqn_, ddpg_, and per_."""
    cfg = base or RunConfig()
    top: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {}
    for key, raw in mapping.items():
        if key not in _KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
        group, name, (parse, _) = _KEYS[key]
        try:
            value = parse(raw)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{key}: {exc}") from None
        (top if group is None else nested.setdefault(group, {}))[name] = value
    for group, overrides in nested.items():
        top[group] = replace(getattr(cfg, group), **overrides)
    return replace(cfg, **top)


def config_to_mapping(cfg: RunConfig) -> dict[str, str]:
    """Flatten a RunConfig to strings; inverse of config_from_mapping."""
    out: dict[str, str] = {}
    for key, (group, name, (_, render)) in _KEYS.items():
        owner = cfg if group is None else getattr(cfg, group)
        out[key] = render(getattr(owner, name))
    return out


def effective_mapping(cfg: RunConfig) -> dict[str, str]:
    """Config mapping with auto fields resolved to their final values."""
    mapping = config_to_mapping(cfg)
    mapping["buffer_capacity"] = str(cfg.resolved_buffer_capacity())
    if cfg.hindsight:
        mapping["goal_tolerance"] = repr(cfg.resolved_goal_tolerance())
    return mapping


def parse_config_file(path) -> dict[str, str]:
    """Read flat key=value lines; blank lines and # comments ignored.
    Raises ConfigurationError, naming ``path``, when the file is not
    UTF-8 text or a line is not key=value."""
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping
