"""Composable experience replay strategies with matching agents,
environments, and an experiment harness."""

from .agents import AGENTS, DdpgAgent, DdpgConfig, DqnAgent, DqnConfig, OUNoise
from .config import RunConfig
from .envs import env_names, env_spec, make_env
from .errors import (
    CheckpointError,
    ConfigurationError,
    IntegrityError,
    NotReadyError,
    NumericalError,
    ReplayKitError,
)
from .harness import (
    Experiment,
    ReplayStack,
    TrainRecord,
    build_run,
    check_convergence,
    emit_csv,
    run_to_dir,
    sweep,
    train,
)
from .hindsight import relabeled_transitions
from .prioritized import PerConfig, PrioritizedSampler, SumTree
from .replay import Batch, ReplayBuffer, sample_combined, sample_uniform

__version__ = "0.1.0"

__all__ = [
    "AGENTS",
    "Batch",
    "CheckpointError",
    "ConfigurationError",
    "DdpgAgent",
    "DdpgConfig",
    "DqnAgent",
    "DqnConfig",
    "Experiment",
    "IntegrityError",
    "NotReadyError",
    "NumericalError",
    "OUNoise",
    "PerConfig",
    "PrioritizedSampler",
    "ReplayBuffer",
    "ReplayKitError",
    "ReplayStack",
    "RunConfig",
    "SumTree",
    "TrainRecord",
    "build_run",
    "check_convergence",
    "emit_csv",
    "env_names",
    "env_spec",
    "make_env",
    "relabeled_transitions",
    "run_to_dir",
    "sample_combined",
    "sample_uniform",
    "sweep",
    "train",
]
