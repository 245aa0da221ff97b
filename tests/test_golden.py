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
change that alters results on purpose regenerates the table with
``python tests/test_golden.py`` (it prints the table this host
computes, in the layout below, and marks each value that differs from
the committed one) and says why in CHANGES.md.

The hashes were generated with numpy 2.4.6 linked against
scipy-openblas 0.3.31 (x86-64, Python 3.11), on the SkylakeX kernel.
Matrix products round differently under another numpy or BLAS build,
and the same build is enough to change them on another CPU: OpenBLAS
built with ``DYNAMIC_ARCH`` picks its kernel for the CPU when it loads,
and under the Haswell kernel (an AVX2-only Intel or an AMD Zen CPU)
none of the six entries matches. So there the hashes can differ
without any change to this code. The contract is (config, seed, numpy
build, BLAS kernel) -> bytes of run.csv and checkpoint.txt. Every
failure message names the numpy build, the BLAS build and the kernel
loaded (``blas_kernel.blas_kernel()``).
"""

from __future__ import annotations

import hashlib
import json
import tempfile

import numpy as np
import pytest
from blas_kernel import blas_kernel

from replaykit.agents import AGENTS, scaler_for
from replaykit.envs import DiscreteActions, env_spec
from replaykit.harness import (
    build_run,
    config_from_mapping,
    evaluate_checkpoint,
    run_to_dir,
    train,
)
from replaykit.nn import init_mlp, save_checkpoint

CAPACITY = 300
WARMUP = 64
EVAL_EPISODES = 20

# name -> (config mapping, sha256 of run.csv, sha256 of checkpoint.txt,
#          repr of the checkpoint's evaluate_checkpoint mean and std)
GOLDEN = {
    "cartpole-dqn-baseline": (
        {"env": "cartpole", "agent": "dqn", "episodes": "30"},
        "d600f6921feebcc2760a1526fe3b8d899a9107ebe80218a57ce0e8c1aa2a2c83",
        "93d843d2a8892220da37de693beff0c1c0e37be823a86adb6d70a2a3868b6983",
        "(9.2, 0.7483314773547881)",
    ),
    "cartpole-dqn-cer": (
        {"env": "cartpole", "agent": "dqn", "episodes": "30", "combined": "true"},
        "be3f6e7ae84c8cb2a1e4fa92f6d7365ead340ddb5da365196136b2013b2e570c",
        "a5a825733a957341fea2c4c207bec7cd539887e12fcf35f9c278860f1554f476",
        "(9.2, 0.7483314773547881)",
    ),
    "cartpole-dqn-per": (
        {"env": "cartpole", "agent": "dqn", "episodes": "30", "prioritized": "true"},
        "8120ce6a2a7aa0b052e80c44b639eeaaabd78f9ef943b6cf6832063316ddc341",
        "0afdc7eb4b3cab325f8cc42b3f086dcf49760d49dfebde0e5ba5acea52d40b49",
        "(10.55, 0.8046738469715539)",
    ),
    "cartpole-dqn-cper": (
        {
            "env": "cartpole",
            "agent": "dqn",
            "episodes": "30",
            "combined": "true",
            "prioritized": "true",
        },
        "1f8ee1265666b5877fb128e8d36bb808950e7422a057ced98c6a565a398a2845",
        "7eaac6b422cc233d70a5fb522583673b23c6f1682d5ef7c7bd0427cfc3a85659",
        "(23.8, 10.557461816175325)",
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
        "8cb803dc27e81aaeae6d5be514eed46c83d46eabfd4f7e26bd9b8cc53e57f9cf",
        "b15a5e7ed32c759a8a70af4fba5b5157fcec5d88cf074fe24bc9bb21a15bcc4a",
        "(-200.0, 0.0)",
    ),
    "pendulum-ddpg-hper": (
        {
            "env": "pendulum",
            "agent": "ddpg",
            "episodes": "6",
            "hindsight": "true",
            "prioritized": "true",
        },
        "092034942248a5fc513035554aeb860dee6e808ca4c9fcf7dfa569c7247c2bd9",
        "a03dae6e13d4e6d2781dd049508b9f97ed473fb522f13bd24d0210d97803cc72",
        "(-1334.9545673963748, 261.17970371852107)",
    ),
}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def golden_config(name: str):
    """The RunConfig of the named golden run."""
    settings = GOLDEN[name][0]
    return config_from_mapping(
        {
            **settings,
            "seed": "0",
            "eval_interval": "3",
            "eval_episodes": "2",
            "buffer_capacity": str(CAPACITY),
            f"{settings['agent']}_warmup": str(WARMUP),
        }
    )


def golden_run(name: str, out_dir) -> tuple[int, str, str, str]:
    """Train the named golden run into ``out_dir``; returns its env
    step count, the sha256 of run.csv and checkpoint.txt, and the repr
    of the checkpoint's EVAL_EPISODES-episode evaluation."""
    cfg = golden_config(name)
    result = run_to_dir(cfg, out_dir)
    steps = result["records"][-1].steps
    evaluation = evaluate_checkpoint(result["checkpoint"], EVAL_EPISODES, cfg.seed)
    return steps, _sha256(result["csv"]), _sha256(result["checkpoint"]), repr(evaluation)


REBASELINE = "python tests/test_golden.py prints the table this host computes"


def golden_table(values: dict[str, tuple[str, str, str]]) -> str:
    """The ``GOLDEN = {...}`` source text with ``values[name]`` (run.csv
    hash, checkpoint hash, eval repr) as each entry's values, and
    ``# changed`` after each one that differs from the committed table."""
    lines = ["GOLDEN = {"]
    for name, (settings, *committed) in GOLDEN.items():
        lines.append(f'    "{name}": (')
        one_line = f"        {json.dumps(settings)},"
        if len(one_line) <= 88:  # wider settings go one key a line
            lines.append(one_line)
        else:
            lines.append("        {")
            lines += [f'            "{key}": "{value}",' for key, value in settings.items()]
            lines.append("        },")
        for got, old in zip(values[name], committed):
            lines.append(f'        "{got}",' + ("" if got == old else "  # changed"))
        lines.append("    ),")
    return "\n".join(lines + ["}"]) + "\n"


def test_golden_table_prints_the_committed_layout() -> None:
    committed = {name: tuple(entry[1:]) for name, entry in GOLDEN.items()}
    with open(__file__, encoding="utf-8") as fh:
        assert golden_table(committed) in fh.read()
    name = next(iter(GOLDEN))
    changed = golden_table({**committed, name: ("0" * 64, *committed[name][1:])})
    assert changed.count("# changed") == 1
    assert f'        "{"0" * 64}",  # changed\n' in changed


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run_hashes(name, tmp_path) -> None:
    settings, csv_hash, checkpoint_hash, eval_repr = GOLDEN[name]
    steps, got_csv, got_checkpoint, got_eval = golden_run(name, tmp_path)
    stored = steps * (2 if settings.get("hindsight") == "true" else 1)
    on = f"on {blas_kernel()}; {REBASELINE}"
    assert stored > CAPACITY, f"{name}: buffer never wrapped ({stored} rows) {on}"
    assert steps > WARMUP, f"{name}: no learning step after warm-up {on}"
    assert got_csv == csv_hash, f"{name}: run.csv changed {on}"
    assert got_checkpoint == checkpoint_hash, f"{name}: checkpoint.txt changed {on}"
    assert got_eval == eval_repr, f"{name}: checkpoint evaluation changed {on}"


RELABELED = -1  # the step recorded for a slot that relabeling wrote last


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run_rows_are_consistent(name) -> None:
    """Trajectory-level invariant of every row a golden run leaves in
    its buffer, bit for bit. The raw transition of every row
    re-simulates through the env's ``dynamics``, which also gives an
    original row its reward and done. A row with a goal re-scores
    through ``goal_reward`` under the goal in its states' tails, and its
    done is that success when the env's task ends on success: original
    rows carry the native goal, under which ``goal_reward`` gives the
    env's own rewards, and relabeled rows the goal their episode
    achieved. Stored originals of consecutive steps of one episode
    chain, next state to state."""
    exp = build_run(golden_config(name))
    env, width, tolerance = type(exp.env), exp.spec.obs_dim, exp.goal_tolerance
    step_of: dict[int, int] = {}  # slot -> env step of the row last written there
    starts: list[int] = []  # env steps that begin an episode
    steps = 0
    append, extend, begin = exp.stack.append, exp.stack.extend, exp.agent.begin_episode

    def spy_append(*row):
        nonlocal steps
        slot = append(*row)
        step_of[slot] = steps
        steps += 1
        return slot

    def spy_extend(*columns):
        slots = extend(*columns)
        step_of.update(dict.fromkeys(slots.tolist(), RELABELED))
        return slots

    def spy_begin():
        starts.append(steps)
        begin()

    exp.stack.append, exp.stack.extend, exp.agent.begin_episode = spy_append, spy_extend, spy_begin
    train(exp)
    assert sorted(step_of) == list(range(len(exp.stack)))
    rows = exp.stack.buffer.gather(np.arange(len(exp.stack)))
    for slot, step in step_of.items():
        state, next_state = rows.states[slot, :width], rows.next_states[slot, :width]
        action, reward, done = rows.actions[slot], rows.rewards[slot], rows.dones[slot]
        where = f"{name}: slot {slot}, step {step}"
        sim_next, sim_reward, sim_done = env.dynamics(state, action)
        assert sim_next.tobytes() == next_state.tobytes(), f"{where}: does not re-simulate"
        if step != RELABELED:
            assert np.float64(sim_reward).tobytes() == reward.tobytes(), f"{where}: reward"
            assert float(sim_done) == done, f"{where}: done"
        if exp.native_goal is None:
            continue
        goal = rows.states[slot, width:]
        assert goal.tobytes() == rows.next_states[slot, width:].tobytes(), f"{where}: two goals"
        if step != RELABELED:
            assert goal.tobytes() == exp.native_goal.tobytes(), f"{where}: not the native goal"
        goal_reward, success = env.goal_reward(state, action, next_state, goal, tolerance)
        assert np.float64(goal_reward).tobytes() == reward.tobytes(), f"{where}: goal reward"
        assert float(success and env.spec.success_ends_episode) == done, f"{where}: goal done"
    slot_of = {step: slot for slot, step in step_of.items() if step != RELABELED}
    assert slot_of and (len(slot_of) < len(step_of)) == (exp.native_goal is not None)
    pairs = [step for step in slot_of if step + 1 in slot_of and step + 1 not in starts]
    assert pairs, f"{name}: no stored pair of consecutive steps"
    for step in pairs:
        chained = rows.states[slot_of[step + 1]].tobytes() == rows.next_states[slot_of[step]].tobytes()
        assert chained, f"{name}: steps {step} and {step + 1} do not chain"


# name -> (env, agent, hindsight, network init seed, eval seed,
#          repr of evaluate_checkpoint(path, EVAL_EPISODES, eval seed))
TANH_CHECKPOINTS = {
    "cartpole-dqn-q": ("cartpole", "dqn", False, 9, 3, "(19.15, 2.7253440149823285)"),
    "pendulum-ddpg-hindsight-actor": (
        "pendulum",
        "ddpg",
        True,
        12,
        4,
        "(-1322.055346582074, 301.39707786748863)",
    ),
}


def tanh_checkpoint(name: str, path) -> None:
    """Write a checkpoint whose policy network has tanh hidden layers,
    as every agent built before the relu hidden layers did."""
    env, agent, hindsight, net_seed, _, _ = TANH_CHECKPOINTS[name]
    spec = env_spec(env)
    discrete = isinstance(spec.actions, DiscreteActions)
    sizes = (
        scaler_for(spec, hindsight).dim,
        64,
        64,
        spec.actions.n if discrete else spec.actions.dim,
    )
    head = {} if discrete else {"output_activation": "tanh", "output_scale": spec.actions.high}
    net = init_mlp(sizes, np.random.default_rng(net_seed), hidden_activation="tanh", **head)
    meta = {"env": env, "agent": agent, "hindsight": str(hindsight).lower()}
    save_checkpoint(path, {AGENTS[agent].POLICY_NET: net}, meta)


@pytest.mark.parametrize("name", sorted(TANH_CHECKPOINTS))
def test_tanh_checkpoints_keep_their_evaluation(name, tmp_path) -> None:
    """Checkpoints store their activations, so one written by an agent
    with tanh hidden layers evaluates the same whatever the agents
    build today."""
    *_, eval_seed, eval_repr = TANH_CHECKPOINTS[name]
    path = tmp_path / "checkpoint.txt"
    tanh_checkpoint(name, path)
    got = repr(evaluate_checkpoint(path, EVAL_EPISODES, eval_seed))
    assert got == eval_repr, f"{name}: evaluation changed on {blas_kernel()}"


if __name__ == "__main__":
    print(f"# {blas_kernel()}")
    computed = {}
    for name in GOLDEN:
        with tempfile.TemporaryDirectory() as out:
            computed[name] = golden_run(name, out)[1:]
    print(golden_table(computed), end="")
