"""Command-line harness.

Three subcommands: ``train`` runs one configuration, ``sweep`` runs
every strategy combination for an (env, agent, seed), and ``eval``
replays a saved checkpoint with exploration off. Settings resolve in
order: built-in defaults, then --config file entries, then flags.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .agents import AGENTS
from .config import RunConfig, config_from_mapping, parse_config_file
from .envs import env_names
from .errors import ConfigurationError, ReplayKitError
from .harness import evaluate_checkpoint, run_to_dir, sweep


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--env", required=True, choices=env_names())
    parser.add_argument("--agent", required=True, choices=list(AGENTS))
    parser.add_argument("--seed", type=int, default=0, help="run seed (u64)")
    parser.add_argument("--episodes", type=int, default=None, help="episode limit")
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replaykit",
        description="Train and evaluate replay-strategy experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train_p = sub.add_parser("train", help="train one strategy combination")
    _add_run_arguments(train_p)
    for flag in ("combined", "prioritized", "hindsight"):
        train_p.add_argument(
            f"--{flag}", action=argparse.BooleanOptionalAction, default=None
        )

    sweep_p = sub.add_parser("sweep", help="train every strategy combination")
    _add_run_arguments(sweep_p)

    eval_p = sub.add_parser("eval", help="evaluate a saved checkpoint")
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--episodes", type=int, default=100)
    eval_p.add_argument("--seed", type=int, default=0)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(parse_config_file(args.config))
    for item in args.overrides:
        if "=" not in item:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        mapping[key.strip()] = value.strip()
    mapping["env"] = args.env
    mapping["agent"] = args.agent
    mapping["seed"] = str(args.seed)
    if args.episodes is not None:
        mapping["episodes"] = str(args.episodes)
    for flag in ("combined", "prioritized", "hindsight"):
        value = getattr(args, flag, None)
        if value is not None:
            mapping[flag] = "true" if value else "false"
    return config_from_mapping(mapping)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Overflow and NaN end a run through the finite checks of forward,
    # adam_step and check_divergence, as a typed error; numpy's own
    # warnings about them would only print ahead of it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    try:
        if args.command == "train":
            cfg = _config_from_args(args)
            result = run_to_dir(cfg, args.out)
            records = result["records"]
            converged = result["converged_at"]
            last = records[-1] if records else None
            print(f"wrote {result['csv']}")
            if converged is not None:
                print(f"converged at episode {converged}")
            elif last is not None:
                print(
                    f"finished {last.episode} episodes; last eval mean "
                    f"{last.eval_mean:.3f}"
                )
            else:
                print("no episodes requested")
            return 0
        if args.command == "sweep":
            cfg = _config_from_args(args)
            rows = sweep(cfg, args.out)
            width = max(len(name) for name, _, _ in rows)
            for name, status, episode in rows:
                suffix = f" at episode {episode}" if episode is not None else ""
                print(f"{name:<{width}}  {status}{suffix}")
            return 0
        if args.command == "eval":
            mean, std = evaluate_checkpoint(args.checkpoint, args.episodes, args.seed)
            print(f"eval_mean={mean:.6f} eval_std={std:.6f}")
            return 0
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ReplayKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
