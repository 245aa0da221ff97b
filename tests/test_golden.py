"""Golden runs: byte-exact fingerprints of six short training runs.

Each run covers one (env, agent, strategy) cell of the paper's matrix
and is small enough to finish in about a second, yet large enough that
the replay buffer wraps (FIFO eviction) and that learning steps follow
the warm-up. The sha256 of its ``run.csv`` and ``checkpoint.txt`` is
committed below, with the full-precision ``repr`` of a 20-episode
``evaluate_checkpoint`` of the checkpoint at the run's seed: ``run.csv``
prints 6 decimals of a 2-episode evaluation, so a last-bit change to
the evaluation path can leave both hashes as they are. A refactor that
does not mean to change the maths must leave every entry as it is; a
change that alters results on purpose regenerates the table
(``golden_run(name, out_dir)`` returns the new values) and says why in
CHANGES.md.

The hashes were generated with numpy 2.4.6 linked against OpenBLAS
(x86-64, Python 3.11). Matrix products round differently under another
numpy or BLAS build, so there the hashes can differ without any change
to this code.
"""

from __future__ import annotations

import hashlib

import pytest

from replaykit.harness import config_from_mapping, evaluate_checkpoint, run_to_dir

CAPACITY = 300
WARMUP = 64
EVAL_EPISODES = 20

# name -> (config mapping, sha256 of run.csv, sha256 of checkpoint.txt,
#          repr of the checkpoint's evaluate_checkpoint mean and std)
GOLDEN = {
    "cartpole-dqn-baseline": (
        {"env": "cartpole", "agent": "dqn", "episodes": "30"},
        "0782425b4cb30b0aa0fb0a6cdf1af8a309618c7e5a579fe74088dbbab946c314",
        "6c8a4daf876b8d84441c46f37bca83d5be8c6330825d5e2558171116368d8cf6",
        "(10.35, 1.0136567466356645)",
    ),
    "cartpole-dqn-cer": (
        {"env": "cartpole", "agent": "dqn", "episodes": "30", "combined": "true"},
        "671a910bac1d3509990fdac4b046ebf6a73da31733537a9073d8727a5b31f971",
        "eafbf14b9f3e3ea1d279ef75eb6d93a5839c90820f6b135c34842ce77d85772a",
        "(9.2, 0.7483314773547881)",
    ),
    "cartpole-dqn-per": (
        {"env": "cartpole", "agent": "dqn", "episodes": "30", "prioritized": "true"},
        "ec14b8db442aef87a20cc211c942171bf4714001cc508e7f6d73a69857668506",
        "0802c1fbe50d10bbf40c9f010dfec1051dda39742865b824b939d488f614f273",
        "(15.0, 2.6267851073127395)",
    ),
    "cartpole-dqn-cper": (
        {
            "env": "cartpole",
            "agent": "dqn",
            "episodes": "30",
            "combined": "true",
            "prioritized": "true",
        },
        "622eaf3adfd8b3710b93c7042529824d968e8c14dd71985dc9eede5c0fec2cba",
        "3b8c7d55579a9ad6050a7bebfb9514bb2c43f9106de23f3f38588f9c5d06dad8",
        "(104.75, 12.193748398257199)",
    ),
    "mountaincar-dqn-chper": (
        {
            "env": "mountaincar",
            "agent": "dqn",
            "episodes": "6",
            "combined": "true",
            "hindsight": "true",
            "prioritized": "true",
        },
        "17fd52ee11e84d87581ea49e6a510dc187287d8ff44c0f8ad1ee97dfa2661338",
        "5007ce84175e103c61b2d15e6cfcf3a6869c8cc6d909f631ddc17f9c359ae4ac",
        "(-182.9, 13.98177385026664)",
    ),
    "pendulum-ddpg-hper": (
        {
            "env": "pendulum",
            "agent": "ddpg",
            "episodes": "6",
            "hindsight": "true",
            "prioritized": "true",
        },
        "a93b07114c54fd491e24a3d9460d0783735e399ee493ce922d276c5a01a979e8",
        "231fb05beb20b412a09f8c76d04d825a04e43dc61a58e36ff87238971543b012",
        "(-1494.2744588779888, 116.5756377632735)",
    ),
}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def golden_run(name: str, out_dir) -> tuple[int, str, str, str]:
    """Train the named golden run into ``out_dir``; returns its env
    step count, the sha256 of run.csv and checkpoint.txt, and the repr
    of the checkpoint's EVAL_EPISODES-episode evaluation."""
    settings = GOLDEN[name][0]
    mapping = {
        **settings,
        "seed": "0",
        "eval_interval": "3",
        "eval_episodes": "2",
        "buffer_capacity": str(CAPACITY),
        f"{settings['agent']}_warmup": str(WARMUP),
    }
    result = run_to_dir(config_from_mapping(mapping), out_dir)
    steps = result["records"][-1].steps
    evaluation = evaluate_checkpoint(result["checkpoint"], EVAL_EPISODES, int(mapping["seed"]))
    return steps, _sha256(result["csv"]), _sha256(result["checkpoint"]), repr(evaluation)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run_hashes(name, tmp_path) -> None:
    settings, csv_hash, checkpoint_hash, eval_repr = GOLDEN[name]
    steps, got_csv, got_checkpoint, got_eval = golden_run(name, tmp_path)
    stored = steps * (2 if settings.get("hindsight") == "true" else 1)
    assert stored > CAPACITY, f"{name}: buffer never wrapped ({stored} rows)"
    assert steps > WARMUP, f"{name}: no learning step after warm-up"
    assert got_csv == csv_hash, f"{name}: run.csv changed"
    assert got_checkpoint == checkpoint_hash, f"{name}: checkpoint.txt changed"
    assert got_eval == eval_repr, f"{name}: checkpoint evaluation changed"
