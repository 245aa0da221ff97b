"""Artifacts written in pieces: each file has the bytes of the whole-text
join it was once written from, and a write that fails part way leaves
the earlier file and no temp file."""

from __future__ import annotations

import math

import numpy as np
import pytest

from replaykit import harness, nn
from replaykit.config import RunConfig, effective_mapping
from replaykit.harness import (
    CSV_HEADER,
    SWEEP_STRATEGIES,
    TrainRecord,
    emit_csv,
    sweep,
    write_manifest,
)
from replaykit.nn import init_mlp, save_checkpoint


def joined_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.episode},{r.train_reward:.6f},{r.eval_mean:.6f},"
            f"{r.eval_std:.6f},{r.steps}"
        )
    return "\n".join(lines) + "\n"


def joined_manifest(mapping: dict) -> str:
    return "".join(f"{key}={mapping[key]}\n" for key in sorted(mapping))


def joined_summary(rows) -> str:
    lines = ["strategy,status,episodes_to_convergence"]
    for name, status, episode in rows:
        lines.append(f"{name},{status},{'' if episode is None else episode}")
    return "\n".join(lines) + "\n"


def joined_checkpoint(nets, meta) -> str:
    def floats(a):
        return " ".join(map(repr, a.ravel().tolist()))

    lines = ["mlp-checkpoint-v1"]
    lines += [f"meta {key} {value}" for key, value in meta.items()]
    for name, net in nets.items():
        lines.append(f"net {name}")
        lines.append("layers " + " ".join(str(n) for n in net.layer_sizes))
        lines.append(
            f"activation {net.hidden_activation} {net.output_activation} "
            + repr(net.output_scale)
        )
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            lines.append(f"W{i} " + floats(w))
            lines.append(f"b{i} " + floats(b))
        lines.append("end")
    return "\n".join(lines) + "\n"


def test_run_csv_bytes_match_joined_text(tmp_path) -> None:
    records = [
        TrainRecord(1, 21.0, math.nan, math.nan, 21),
        TrainRecord(2, -1234.5678912, 195.25, 3.125, 4_000),
        TrainRecord(3, 1e-9, -0.0, 1e12, 4_200),
    ]
    path = tmp_path / "run.csv"
    for rows in ([], records[:1], records):
        emit_csv(rows, path)
        assert path.read_bytes() == joined_csv(rows).encode("ascii")


def test_manifest_bytes_match_joined_text(tmp_path) -> None:
    path = tmp_path / "manifest.txt"
    for cfg, extra in (
        (RunConfig(), None),
        (RunConfig(env="pendulum", agent="ddpg", hindsight=True, prioritized=True),
         {"runtime_s": "1.5", "note": "café"}),
    ):
        write_manifest(path, cfg, extra)
        mapping = {**effective_mapping(cfg), **(extra or {})}
        assert path.read_bytes() == joined_manifest(mapping).encode("utf-8")


def test_sweep_summary_bytes_match_joined_text(tmp_path, monkeypatch) -> None:
    # Each supported combination "converges" at a made-up episode, or not.
    def fake_run(cfg, out_dir):
        name = cfg.strategy_name()
        return {"converged_at": None if name == "cer" else 10 + len(name)}

    monkeypatch.setattr(harness, "run_to_dir", fake_run)
    rows = sweep(RunConfig(episodes=1), tmp_path / "sweep")
    episodes = [episode for _, _, episode in rows]
    assert len(episodes) == len(SWEEP_STRATEGIES)
    assert None in episodes and 18 in episodes  # baseline converged at 10 + 8
    summary = tmp_path / "sweep" / "summary.csv"
    assert summary.read_bytes() == joined_summary(rows).encode("ascii")


CHUNK = nn._CHUNK


@pytest.mark.parametrize(
    "sizes, meta",
    [
        ((4, 3, 2), {}),
        ((1, CHUNK), {"env": "cartpole"}),  # W0 and b0 are one chunk each
        ((2, CHUNK), {}),  # W0 is exactly two chunks
        # b0 is a chunk and one float; W0 three chunks and three floats
        ((3, CHUNK + 1, 1), {"env": "pendulum", "goal_tolerance": ""}),
    ],
    ids=["small-empty-meta", "one-chunk", "two-chunks", "longer-than-a-chunk"],
)
def test_checkpoint_bytes_match_joined_text(tmp_path, sizes, meta) -> None:
    rng = np.random.default_rng(len(sizes) + sizes[-1])
    nets = {
        "q": init_mlp(list(sizes), rng),
        "actor": init_mlp([3, 5, 1], rng, output_activation="tanh", output_scale=2.0),
    }
    path = tmp_path / "checkpoint.txt"
    save_checkpoint(path, nets, meta)
    assert path.read_bytes() == joined_checkpoint(nets, meta).encode("ascii")


@pytest.mark.parametrize(
    "names, meta",
    [
        (["q", "bad name"], {"env": "cartpole"}),
        (["q"], {"env": "cartpole", "note": "two\nlines"}),
    ],
    ids=["net-name-with-space", "two-line-meta"],
)
def test_checkpoint_failing_part_way_keeps_earlier_file(tmp_path, names, meta) -> None:
    # The bad name or value is met after earlier pieces have gone to the
    # temp file: the magic line and meta, and for the name, a whole net.
    net = init_mlp([2, CHUNK + 1, 1], np.random.default_rng(3))
    path = tmp_path / "checkpoint.txt"
    save_checkpoint(path, {"q": net}, {"env": "cartpole"})
    earlier = path.read_bytes()
    with pytest.raises(ValueError):
        save_checkpoint(path, dict.fromkeys(names, net), meta)
    assert path.read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.txt"]
