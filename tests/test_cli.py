from __future__ import annotations

import warnings

import numpy as np
import pytest

from replaykit.cli import main
from replaykit.config import config_from_mapping, validate_config
from replaykit.errors import CheckpointError
from replaykit.harness import evaluate_checkpoint
from replaykit.nn import init_mlp, save_checkpoint

TINY = [
    "--set", "episodes=2",
    "--set", "eval_interval=2",
    "--set", "eval_episodes=2",
    "--set", "buffer_capacity=128",
    "--set", "dqn_warmup=8",
    "--set", "dqn_batch_size=4",
    "--set", "dqn_hidden_sizes=8",
]


def run_cli(args) -> int:
    return main([str(a) for a in args])


def test_train_writes_artifacts(tmp_path, capsys) -> None:
    out = tmp_path / "run"
    code = run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--out", out, *TINY])
    assert code == 0
    assert (out / "run.csv").exists()
    assert (out / "manifest.txt").exists()
    assert (out / "checkpoint.txt").exists()
    captured = capsys.readouterr()
    assert "run.csv" in captured.out
    csv = (out / "run.csv").read_text().splitlines()
    assert csv[0] == "episode,train_reward,eval_mean,eval_std,steps"
    assert len(csv) == 3


def test_train_reruns_are_byte_identical(tmp_path) -> None:
    args = ["train", "--env", "cartpole", "--agent", "dqn", "--seed", 7, *TINY]
    assert run_cli([*args, "--out", tmp_path / "a"]) == 0
    assert run_cli([*args, "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "run.csv").read_bytes() == (
        tmp_path / "b" / "run.csv"
    ).read_bytes()


def test_train_strategy_flags_reach_manifest(tmp_path) -> None:
    out = tmp_path / "cer"
    code = run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--combined", "--prioritized", "--out", out, *TINY])
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "combined=true" in manifest
    assert "prioritized=true" in manifest
    assert "hindsight=false" in manifest


def test_config_file_and_set_precedence(tmp_path) -> None:
    cfg = tmp_path / "base.cfg"
    cfg.write_text("episodes=9\ndqn_gamma=0.5\neval_interval=50\n")
    out = tmp_path / "run"
    code = run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--config", cfg, "--out", out, *TINY,
                    "--set", "dqn_gamma=0.9"])
    assert code == 0
    manifest = dict(
        line.partition("=")[::2]
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    # --set beats the config file; TINY's episodes=2 beats the file's 9
    assert manifest["dqn_gamma"] == "0.9"
    assert manifest["episodes"] == "2"


def test_episodes_flag_beats_everything(tmp_path) -> None:
    out = tmp_path / "run"
    code = run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--episodes", 1, "--out", out, *TINY])
    assert code == 0
    csv = (out / "run.csv").read_text().splitlines()
    assert len(csv) == 2


def test_invalid_combination_exits_2(tmp_path, capsys) -> None:
    code = run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--hindsight", "--out", tmp_path / "x", *TINY])
    assert code == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "hindsight" in captured.err and "cartpole" in captured.err
    assert not (tmp_path / "x").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys) -> None:
    code = run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--out", tmp_path / "x", "--set", "warp_speed=9"])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_non_utf8_config_file_names_its_path_and_exits_2(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"episodes=2\n# caf\xff\n")
    code = run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--out", tmp_path / "o", "--config", bad])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert str(bad) in err and "UTF-8" in err
    assert not (tmp_path / "o").exists()


def test_malformed_set_exits_2(tmp_path, capsys) -> None:
    code = run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--out", tmp_path / "x", "--set", "episodes"])
    assert code == 2
    assert "KEY=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("dqn_batch_size=many", "dqn_batch_size: expected an integer, got 'many'"),
        ("combined=maybe", "combined: expected a boolean, got 'maybe'"),
        ("per_alpha=high", "per_alpha: expected a number, got 'high'"),
    ],
)
def test_unparsable_value_names_its_key_and_exits_2(tmp_path, capsys, setting, message) -> None:
    code = run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--out", tmp_path / "x", "--set", setting])
    assert code == 2
    err = capsys.readouterr().err
    assert err.strip() == f"configuration error: {message}"
    assert not (tmp_path / "x").exists()


def test_unknown_env_rejected_by_argparse(tmp_path, capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["train", "--env", "gridworld", "--agent", "dqn",
                 "--out", tmp_path / "x"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_sweep_writes_summary(tmp_path, capsys) -> None:
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--env", "cartpole", "--agent", "dqn",
                    "--out", out, *TINY,
                    "--set", "episodes=1", "--set", "eval_interval=10"])
    assert code == 0
    captured = capsys.readouterr()
    for name in ("baseline", "cer", "per", "cper"):
        assert name in captured.out
    assert "unsupported" in captured.out
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "strategy,status,episodes_to_convergence"
    assert len(summary) == 9
    assert (out / "baseline" / "run.csv").exists()
    assert not (out / "her").exists()


def test_sweep_ignores_the_strategy_flags_of_its_base_config(tmp_path, capsys) -> None:
    # sweep sets all three strategy flags for each combination, so a
    # hindsight flag on a goalless env only marks the HER runs unsupported.
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--env", "cartpole", "--agent", "dqn",
                    "--out", out, *TINY, "--set", "episodes=1", "--set", "eval_interval=10",
                    "--set", "hindsight=true", "--set", "combined=true"])
    assert code == 0, capsys.readouterr().err
    statuses = dict(line.split(",")[:2] for line in
                    (out / "summary.csv").read_text().splitlines()[1:])
    assert len(statuses) == 8
    for name in ("her", "cher", "hper", "chper"):
        assert statuses[name] == "unsupported"
    for name in ("baseline", "cer", "per", "cper"):
        assert statuses[name] != "unsupported"
        assert (out / name / "run.csv").exists()


def test_eval_reports_checkpoint_score(tmp_path, capsys) -> None:
    out = tmp_path / "run"
    assert run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--out", out, *TINY]) == 0
    capsys.readouterr()
    code = run_cli(["eval", "--checkpoint", out / "checkpoint.txt",
                    "--episodes", 3, "--seed", 1])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("eval_mean=")
    assert "eval_std=" in line
    mean = float(line.split()[0].partition("=")[2])
    assert 1.0 <= mean <= 200.0


def test_eval_is_deterministic(tmp_path, capsys) -> None:
    out = tmp_path / "run"
    assert run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--out", out, *TINY]) == 0
    capsys.readouterr()
    run_cli(["eval", "--checkpoint", out / "checkpoint.txt", "--episodes", 5])
    first = capsys.readouterr().out
    run_cli(["eval", "--checkpoint", out / "checkpoint.txt", "--episodes", 5])
    assert capsys.readouterr().out == first


def test_eval_hindsight_checkpoint_round_trip(tmp_path, capsys) -> None:
    out = tmp_path / "her"
    assert run_cli(["train", "--env", "mountaincar", "--agent", "dqn",
                    "--hindsight", "--out", out, *TINY]) == 0
    capsys.readouterr()
    code = run_cli(["eval", "--checkpoint", out / "checkpoint.txt",
                    "--episodes", 2])
    assert code == 0
    assert "eval_mean=" in capsys.readouterr().out


def test_train_out_is_a_file_exits_nonzero(tmp_path, capsys) -> None:
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    code = run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--out", out, *TINY])
    assert code == 1
    assert str(out) in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_eval_checkpoint_without_network_exits_nonzero(tmp_path, capsys) -> None:
    checkpoint = tmp_path / "checkpoint.txt"
    checkpoint.write_text(
        "mlp-checkpoint-v1\nmeta env cartpole\nmeta agent dqn\nmeta hindsight false\n"
    )
    code = run_cli(["eval", "--checkpoint", checkpoint])
    assert code == 1
    assert "network" in capsys.readouterr().err


def test_eval_checkpoint_agent_env_mismatch_exits_nonzero(tmp_path, capsys) -> None:
    # A DDPG actor claiming a discrete-action env.
    checkpoint = tmp_path / "checkpoint.txt"
    actor = init_mlp([4, 8, 1], np.random.default_rng(0), output_activation="tanh")
    meta = {"env": "cartpole", "agent": "ddpg", "hindsight": "false"}
    save_checkpoint(checkpoint, {"actor": actor}, meta)
    code = run_cli(["eval", "--checkpoint", checkpoint])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "discrete actions" in err


def test_eval_checkpoint_bad_goal_tolerance_exits_nonzero(tmp_path, capsys) -> None:
    checkpoint = tmp_path / "checkpoint.txt"
    q = init_mlp([3, 8, 3], np.random.default_rng(0))
    meta = {
        "env": "mountaincar",
        "agent": "dqn",
        "hindsight": "true",
        "goal_tolerance": "abc",
    }
    save_checkpoint(checkpoint, {"q": q}, meta)
    code = run_cli(["eval", "--checkpoint", checkpoint])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "'abc'" in err


def test_eval_checkpoint_unparsable_hindsight_exits_1(tmp_path, capsys) -> None:
    # Meta lines parse as config keys, so "maybe" is an error, not false.
    checkpoint = tmp_path / "checkpoint.txt"
    q = init_mlp([3, 8, 3], np.random.default_rng(0))
    save_checkpoint(checkpoint, {"q": q}, {"env": "mountaincar", "agent": "dqn",
                                           "hindsight": "maybe"})
    with pytest.raises(CheckpointError, match="expected a boolean, got 'maybe'"):
        evaluate_checkpoint(checkpoint, episodes=1)
    code = run_cli(["eval", "--checkpoint", checkpoint])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "'maybe'" in err


@pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "inf"])
def test_train_bad_goal_tolerance_exits_2(tmp_path, capsys, tolerance) -> None:
    out = tmp_path / "run"
    code = run_cli(["train", "--env", "mountaincar", "--agent", "dqn",
                    "--hindsight", "--out", out, *TINY,
                    "--set", f"goal_tolerance={tolerance}"])
    assert code == 2
    assert "goal_tolerance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "env, agent, setting",
    [
        ("cartpole", "dqn", "dqn_learning_rate=-1"),
        ("cartpole", "dqn", "dqn_learning_rate=nan"),
        ("pendulum", "ddpg", "ddpg_actor_lr=-1"),
        ("pendulum", "ddpg", "ddpg_actor_lr=nan"),
        ("pendulum", "ddpg", "ddpg_critic_lr=-1"),
        ("pendulum", "ddpg", "ddpg_critic_lr=nan"),
        ("cartpole", "dqn", "dqn_hidden_sizes=0"),
        ("cartpole", "dqn", "dqn_hidden_sizes=-3"),
        ("pendulum", "ddpg", "ddpg_hidden_sizes=8,0"),
        ("pendulum", "ddpg", "ddpg_ou_mu=nan"),
        ("pendulum", "ddpg", "ddpg_ou_sigma=inf"),
        ("pendulum", "ddpg", "ddpg_ou_theta=inf"),
        ("cartpole", "dqn", "per_max_priority=inf"),
        ("cartpole", "dqn", "per_epsilon=inf"),
        ("cartpole", "dqn", "dqn_epsilon_decay_steps=0"),
    ],
)
def test_train_bad_hyperparameter_exits_2(tmp_path, capsys, env, agent, setting) -> None:
    out = tmp_path / "run"
    code = run_cli(["train", "--env", env, "--agent", agent, "--prioritized",
                    "--out", out, *TINY, "--set", setting])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert setting.partition("_")[2].partition("=")[0] in err
    assert "Traceback" not in err
    assert not out.exists()


def test_eval_checkpoint_negative_goal_tolerance_exits_nonzero(tmp_path, capsys) -> None:
    checkpoint = tmp_path / "checkpoint.txt"
    q = init_mlp([3, 8, 3], np.random.default_rng(0))
    meta = {
        "env": "mountaincar",
        "agent": "dqn",
        "hindsight": "true",
        "goal_tolerance": "-1",
    }
    save_checkpoint(checkpoint, {"q": q}, meta)
    code = run_cli(["eval", "--checkpoint", checkpoint])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "goal_tolerance" in err


@pytest.mark.parametrize(
    "env, agent, name, sizes",
    [
        ("cartpole", "dqn", "q", [3, 8, 2]),
        ("cartpole", "dqn", "q", [4, 8, 5]),
        ("pendulum", "ddpg", "actor", [3, 8, 2]),
    ],
    ids=["q-too-few-inputs", "q-too-many-actions", "actor-too-many-outputs"],
)
def test_eval_checkpoint_misfit_network_exits_nonzero(tmp_path, capsys, env, agent,
                                                      name, sizes) -> None:
    checkpoint = tmp_path / "checkpoint.txt"
    net = init_mlp(sizes, np.random.default_rng(0))
    save_checkpoint(checkpoint, {name: net}, {"env": env, "agent": agent,
                                              "hindsight": "false"})
    code = run_cli(["eval", "--checkpoint", checkpoint])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "does not fit" in err


@pytest.mark.parametrize("episodes", [0, -3])
def test_eval_fewer_than_one_episode_exits_2(tmp_path, capsys, episodes) -> None:
    out = tmp_path / "run"
    assert run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--out", out, *TINY]) == 0
    capsys.readouterr()
    code = run_cli(["eval", "--checkpoint", out / "checkpoint.txt",
                    "--episodes", episodes])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "episodes must be >= 1" in captured.err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_eval_seed_outside_u64_exits_2(tmp_path, capsys, seed) -> None:
    out = tmp_path / "run"
    assert run_cli(["train", "--env", "cartpole", "--agent", "dqn",
                    "--out", out, *TINY]) == 0
    capsys.readouterr()
    code = run_cli(["eval", "--checkpoint", out / "checkpoint.txt", "--seed", seed])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"seed must fit in u64, got {seed}" in captured.err


def test_train_mountaincar_goal_tolerance_below_floor_exits_2(tmp_path, capsys) -> None:
    out = tmp_path / "run"
    code = run_cli(["train", "--env", "mountaincar", "--agent", "dqn",
                    "--hindsight", "--out", out, *TINY,
                    "--set", "goal_tolerance=0.01"])
    assert code == 2
    assert "goal_tolerance 0.01 is below mountaincar's floor" in capsys.readouterr().err
    assert not out.exists()


def test_eval_checkpoint_goal_tolerance_below_floor_exits_1(tmp_path, capsys) -> None:
    checkpoint = tmp_path / "checkpoint.txt"
    q = init_mlp([3, 8, 3], np.random.default_rng(0))
    meta = {
        "env": "mountaincar",
        "agent": "dqn",
        "hindsight": "true",
        "goal_tolerance": "0.01",
    }
    save_checkpoint(checkpoint, {"q": q}, meta)
    code = run_cli(["eval", "--checkpoint", checkpoint])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "goal_tolerance 0.01 is below mountaincar's floor" in err


@pytest.mark.parametrize(
    "env, agent, capacity",
    [("cartpole", "dqn", 500), ("pendulum", "ddpg", 800), ("cartpole", "dqn", 999)],
)
def test_train_buffer_below_warmup_exits_2(tmp_path, capsys, env, agent, capacity) -> None:
    # The stack never holds more rows than its capacity, so a warm-up
    # (default 1,000) above it would never be reached.
    out = tmp_path / "run"
    code = run_cli(["train", "--env", env, "--agent", agent, "--out", out,
                    "--set", "episodes=1", "--set", f"buffer_capacity={capacity}"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"buffer_capacity {capacity} is below {agent}_warmup 1000" in err
    assert not out.exists()
    # A buffer exactly the warm-up's size is accepted.
    validate_config(config_from_mapping(
        {"env": env, "agent": agent, "buffer_capacity": "1000"}
    ))


@pytest.mark.parametrize("theta", ["2", "3", "1e308"])
def test_train_unstable_ou_theta_exits_2(tmp_path, capsys, theta) -> None:
    # The noise recurrence n <- (1 - theta) * n + ... grows without
    # bound unless 0 < theta < 2.
    out = tmp_path / "run"
    code = run_cli(["train", "--env", "pendulum", "--agent", "ddpg", "--episodes", "2",
                    "--out", out, "--set", f"ddpg_ou_theta={theta}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "ou_theta in (0, 2)" in err
    assert not out.exists()


def test_train_ou_noise_overflow_exits_1(tmp_path, capsys) -> None:
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["train", "--env", "pendulum", "--agent", "ddpg", "--episodes", "2",
                        "--out", out, "--set", "ddpg_ou_sigma=1e308"])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: OU noise state ") and "is not finite" in err
    assert "Traceback" not in err
    assert err.count("\n") == 1
