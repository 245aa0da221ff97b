"""End-to-end acceptance checks.

Each test covers one headline guarantee and prints a single
``ACCEPTANCE: <name>: PASS|FAIL`` line (run with ``pytest -s`` to see
the lines as they happen; without ``-s`` the per-test PASSED/FAILED
status carries the same information).

The CartPole training runs are shared by the trend, solvability, and
batch-invariant checks through a module-scoped fixture, so the whole
module stays within a few minutes of wall clock.
"""

from __future__ import annotations

import copy
import math
import statistics

import numpy as np
import pytest
from scipy import stats

from replaykit.agents import DqnAgent, DqnConfig, ObservationScaler, OUNoise
from replaykit.envs import DiscreteActions, MountainCar, Pendulum, make_env
from replaykit.harness import (
    ReplayStack,
    RunConfig,
    build_run,
    check_convergence,
    run_to_dir,
    train,
)
from replaykit.hindsight import Columns, augment_observation, relabeled_transitions
from replaykit.nn import NetworkPair, backward, forward, init_mlp, soft_update
from replaykit.prioritized import BLOCK, PerConfig, PrioritizedSampler, SumTree
from replaykit.replay import ReplayBuffer

SEEDS = (0, 1, 2)
EPISODE_LIMIT = 2000


def _report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE: {name}: {status}{suffix}", flush=True)
    return ok


@pytest.fixture(scope="module")
def cartpole_runs():
    """Three baseline and three combined-replay CartPole runs.

    Combined runs are instrumented to record, for every batch drawn,
    whether slot 0 is the newest slot and holds the row the harness
    appended last.
    """
    out = {"baseline": [], "cer": [], "cer_batch_flags": []}
    for combined in (False, True):
        for seed in SEEDS:
            cfg = RunConfig(
                env="cartpole",
                agent="dqn",
                combined=combined,
                seed=seed,
                episodes=EPISODE_LIMIT,
                eval_interval=50,
            )
            exp = build_run(cfg)
            if combined:
                flags: list[bool] = []
                appended: list[tuple] = []
                append, sample = exp.stack.append, exp.stack.sample

                def recording_append(*row, _append=append, _appended=appended):
                    _appended[:] = [row]
                    return _append(*row)

                def recording(batch_size, _exp=exp, _orig=sample, _flags=flags,
                              _appended=appended):
                    batch = _orig(batch_size)
                    state, action, reward, next_state, done = _appended[0]
                    _flags.append(
                        batch.indices[0] == _exp.stack.buffer.newest
                        and np.array_equal(batch.states[0], state)
                        and batch.actions[0] == action
                        and batch.rewards[0] == reward
                        and np.array_equal(batch.next_states[0], next_state)
                        and batch.dones[0] == float(done)
                    )
                    return batch

                exp.stack.append = recording_append
                exp.stack.sample = recording
            records = train(exp)
            solved_at = check_convergence(records, exp.spec)
            key = "cer" if combined else "baseline"
            out[key].append((records, solved_at))
            if combined:
                out["cer_batch_flags"].append(flags)
    return out


def episodes_to_convergence(solved_at: int | None) -> int:
    return EPISODE_LIMIT if solved_at is None else solved_at


def test_cer_trend_on_cartpole(cartpole_runs) -> None:
    """Forcing the newest transition into every batch must not slow
    convergence down: median episodes-to-solve within 1.25x baseline."""
    base = statistics.median(
        episodes_to_convergence(s) for _, s in cartpole_runs["baseline"]
    )
    cer = statistics.median(
        episodes_to_convergence(s) for _, s in cartpole_runs["cer"]
    )
    ok = cer <= 1.25 * base
    assert _report(
        "cer-trend-cartpole", ok, f"baseline median {base}, cer median {cer}"
    ), f"cer median {cer} exceeds 1.25 * baseline median {base}"


def test_cartpole_solvable(cartpole_runs) -> None:
    """At least one of three seeded baseline runs must reach an
    evaluation mean of 195 within the episode limit."""
    solved = 0
    for records, _ in cartpole_runs["baseline"]:
        if any(
            not math.isnan(r.eval_mean) and r.eval_mean >= 195.0 for r in records
        ):
            solved += 1
    ok = solved >= 1
    assert _report(
        "cartpole-solvable", ok, f"{solved}/{len(SEEDS)} seeds reached 195"
    ), "no baseline seed reached an evaluation mean of 195"


def test_per_sampling_fidelity() -> None:
    """Priorities [3, 1] at alpha=1 must be drawn in a 3:1 ratio to
    within 0.005 over 1e6 draws; at alpha=0 draws must be uniform
    (chi-square p > 0.01)."""
    cfg = PerConfig(alpha=1.0)
    sampler = PrioritizedSampler(2, cfg)
    buffer = ReplayBuffer(2)
    for i in range(2):
        idx = buffer.append(np.array([float(i)]), 0, 0.0, np.array([float(i)]), False)
        sampler.insert(idx)
    # raw priority is |td| + epsilon, so offset the targets by epsilon
    sampler.update_priorities(
        np.array([0, 1]), np.array([3.0 - cfg.epsilon, 1.0 - cfg.epsilon])
    )
    rng = np.random.default_rng(2_001)
    draws = 1_000_000
    batch = 1_000
    counts = np.zeros(2)
    for _ in range(draws // batch):
        indices, _ = sampler.sample(buffer, batch, rng)
        counts += np.bincount(indices, minlength=2)
    freq = counts / counts.sum()
    ratio_ok = abs(freq[0] - 0.75) < 0.005 and abs(freq[1] - 0.25) < 0.005

    flat = PrioritizedSampler(8, PerConfig(alpha=0.0))
    for i in range(8):
        flat.insert(i)
    flat.update_priorities(np.arange(8), np.linspace(0.0, 5.0, 8))
    us = rng.uniform(0.0, flat.tree.total, size=draws)
    leaves = flat.tree.sample_batch(us)
    uniform_p = float(stats.chisquare(np.bincount(leaves, minlength=8)).pvalue)
    uniform_ok = uniform_p > 0.01

    ok = ratio_ok and uniform_ok
    assert _report(
        "per-sampling-fidelity",
        ok,
        f"freq {freq[0]:.4f}/{freq[1]:.4f}, alpha=0 p={uniform_p:.3f}",
    ), f"freq {freq}, uniform p {uniform_p}"


def linear_scan_sample(values: np.ndarray, u: float) -> int:
    cumulative = 0.0
    for i, v in enumerate(values):
        cumulative += v
        if u < cumulative:
            return i
    return len(values) - 1


def test_sum_tree_matches_linear_oracle() -> None:
    """1e4 random set/sample sequences: every sampled index must equal
    the linear-scan oracle, every stored block total must equal a fresh
    sum of its leaves to 1e-9 relative, and the total must be the last
    entry of the block prefix."""
    rng = np.random.default_rng(7)
    mismatches = 0
    worst_block_error = 0.0
    total_mismatches = 0
    for _ in range(10_000):
        capacity = int(rng.integers(1, 33))
        tree = SumTree(capacity)
        values = np.zeros(capacity)
        for _ in range(int(rng.integers(1, 12))):
            i = int(rng.integers(capacity))
            v = float(rng.uniform(0.0, 10.0))
            tree.set(i, v)
            values[i] = v
        nodes = tree.nodes
        n_leaves = len(nodes) // 2
        blocks = n_leaves // BLOCK
        totals = nodes[1 : blocks + 1]
        prefix = nodes[blocks + 1 : 2 * blocks + 2]
        fresh = nodes[n_leaves:].reshape(blocks, BLOCK).sum(axis=1)
        scale = np.maximum(np.abs(fresh), 1.0)
        worst_block_error = max(worst_block_error, float(np.max(np.abs(totals - fresh) / scale)))
        total_mismatches += not (prefix[0] == 0.0 and nodes[0] == prefix[-1] == tree.total)
        if tree.total <= 0.0:
            continue
        for u in rng.uniform(0.0, tree.total, size=4):
            if tree.sample(float(u)) != linear_scan_sample(values, float(u)):
                mismatches += 1
    ok = mismatches == 0 and worst_block_error <= 1e-9 and total_mismatches == 0
    assert _report(
        "sum-tree-oracle",
        ok,
        f"mismatches {mismatches}, worst block error {worst_block_error:.2e}, "
        f"total mismatches {total_mismatches}",
    )


def test_gradient_check_100_networks() -> None:
    """Analytic parameter gradients on 100 random networks must match
    central finite differences (h=1e-5) to 1e-4 relative."""
    h = 1e-5
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(2, 5))
        sizes = tuple(int(rng.integers(2, 7)) for _ in range(depth))
        hidden = str(rng.choice(["tanh", "relu"]))
        output = str(rng.choice(["identity", "tanh"]))
        scale = float(rng.uniform(0.5, 2.0)) if output == "tanh" else 1.0
        net = init_mlp(
            sizes,
            rng,
            hidden_activation=hidden,
            output_activation=output,
            output_scale=scale,
        )
        x = rng.normal(size=sizes[0])[None]
        out, cache = forward(net, x)
        out_grad = rng.normal(size=out.shape)
        flat_grad, _ = backward(net, cache, out_grad)

        def objective() -> float:
            value, _ = forward(net, x)
            return float(np.sum(value * out_grad))

        for param, grad in zip(
            net.weights + net.biases, sum(net.split(flat_grad), [])
        ):
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                original = param[idx]
                param[idx] = original + h
                plus = objective()
                param[idx] = original - h
                minus = objective()
                param[idx] = original
                numeric = (plus - minus) / (2.0 * h)
                denom = max(abs(numeric), abs(grad[idx]), 1.0)
                worst = max(worst, abs(numeric - grad[idx]) / denom)
                it.iternext()
    ok = worst < 1e-4
    assert _report("gradient-check", ok, f"worst relative error {worst:.2e}")


def test_dqn_learns_toy_mdp() -> None:
    """On a 2-state 2-action deterministic MDP the full replay + DQN
    pipeline must recover the value-iteration fixed point to 1e-2."""
    transitions_table = np.array([[0, 1], [0, 1]])
    rewards_table = np.array([[1.0, 0.0], [0.0, 2.0]])
    gamma = 0.9

    q_star = np.zeros((2, 2))
    for _ in range(2_000):
        q_star = rewards_table + gamma * q_star.max(axis=1)[transitions_table]

    def one_hot(s: int) -> np.ndarray:
        v = np.zeros(2)
        v[s] = 1.0
        return v

    cfg = DqnConfig(
        gamma=gamma,
        learning_rate=3e-3,
        batch_size=16,
        target_update_period=100,
        hidden_sizes=(),
        warmup=1,
    )
    agent = DqnAgent(
        DiscreteActions(2), cfg, ObservationScaler(np.zeros(2), np.ones(2)),
        np.random.default_rng(0),
    )
    stack = ReplayStack(
        16, combined=False, per_config=None, rng=np.random.default_rng(1)
    )
    for s in (0, 1):
        for a in (0, 1):
            stack.append(
                one_hot(s), a, rewards_table[s, a],
                one_hot(transitions_table[s, a]), False,
            )
    for _ in range(20_000):
        agent.update(stack.sample(cfg.batch_size))
    learned = np.array(
        [[forward(agent.q, one_hot(s)[None])[0][0, a] for a in (0, 1)] for s in (0, 1)]
    )
    error = float(np.abs(learned - q_star).max())
    ok = error < 1e-2
    assert _report("dqn-toy-mdp", ok, f"max |Q - Q*| = {error:.2e}")


def test_cer_invariant_holds_in_full_runs(cartpole_runs) -> None:
    """Every batch of every combined run must carry the newest stored
    transition in slot 0 -- 100%, not approximately."""
    total = sum(len(flags) for flags in cartpole_runs["cer_batch_flags"])
    violations = sum(
        flags.count(False) for flags in cartpole_runs["cer_batch_flags"]
    )
    ok = total > 0 and violations == 0
    assert _report(
        "cer-batch-invariant", ok, f"{total} batches, {violations} violations"
    )


def test_her_accounting_and_native_restriction() -> None:
    """Relabeling yields one copy per step of an episode and leaves the
    episode's own steps untouched, the final relabeled copy succeeds
    with the sparse goal reward, a training run stores exactly twice
    its steps, and the goal reward at the native goal reproduces native
    step rewards exactly."""
    tolerance = MountainCar.spec.goal_tolerance
    env = make_env("mountaincar")
    rng = np.random.default_rng(3)
    accounting_ok = True
    for _ in range(20):
        obs = env.reset(rng)
        steps = []
        for _ in range(int(rng.integers(5, 60))):
            action = int(rng.integers(3))
            result = env.step(action)
            steps.append((obs, action, result.next_state))
            obs = result.next_state
            if result.done or result.truncated:
                break
        # the episode's rows as the buffer stores them, under the native goal
        states, actions, next_states = zip(*steps)
        goal = MountainCar.native_goal(tolerance)
        episode = Columns(
            augment_observation(states, goal),
            np.array(actions, dtype=np.float64),
            np.zeros(len(steps)),
            augment_observation(next_states, goal),
            np.zeros(len(steps), dtype=bool),
        )
        before = [column.copy() for column in episode]
        relabeled = relabeled_transitions(episode, MountainCar, tolerance)
        accounting_ok &= all(len(column) == len(steps) for column in relabeled)
        accounting_ok &= all(
            np.array_equal(column, old) for column, old in zip(episode, before)
        )
        accounting_ok &= bool(relabeled.dones[-1]) and relabeled.rewards[-1] == 0.0
        accounting_ok &= relabeled.states[-1, 2:] == pytest.approx([next_states[-1][0]])
        accounting_ok &= relabeled.next_states[-1, 2:] == pytest.approx([next_states[-1][0]])

    # a training run stores originals plus relabeled copies: exactly 2x
    cfg = RunConfig(
        env="mountaincar", agent="dqn", hindsight=True, episodes=3,
        eval_interval=10, buffer_capacity=5_000,
        dqn=DqnConfig(warmup=5_000),
    )
    exp = build_run(cfg)
    records = train(exp)
    doubling_ok = len(exp.stack) == 2 * records[-1].steps

    sample_rng = np.random.default_rng(4)
    native_ok = True
    for _ in range(10_000):
        state = np.array(
            [sample_rng.uniform(-1.2, 0.6), sample_rng.uniform(-0.07, 0.07)]
        )
        action = int(sample_rng.integers(3))
        next_state, native_reward, native_done = MountainCar.dynamics(state, action)
        reward, success = MountainCar.goal_reward(
            state, action, next_state, MountainCar.native_goal(tolerance), tolerance
        )
        if reward != native_reward or success != native_done:
            native_ok = False
            break
    ok = accounting_ok and doubling_ok and native_ok
    assert _report(
        "her-accounting",
        ok,
        f"accounting {accounting_ok}, doubling {doubling_ok}, native {native_ok}",
    )


def test_pendulum_reward_and_ou_noise() -> None:
    """The pendulum goal reward at the native goal must equal the env
    step reward exactly on 1e4 random tuples, and OU noise must hold
    its predicted stationary spread to 10% over 1e6 steps."""
    tolerance = Pendulum.spec.goal_tolerance
    goal = Pendulum.native_goal(tolerance)
    rng = np.random.default_rng(5)
    reward_ok = True
    for _ in range(10_000):
        theta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        theta_dot = rng.uniform(-8.0, 8.0)
        action = rng.uniform(-2.0, 2.0)
        state = Pendulum.observation(theta, theta_dot)
        next_state, native_reward, _ = Pendulum.dynamics(state, [action])
        reward, _ = Pendulum.goal_reward(state, [action], next_state, goal, tolerance)
        if reward != native_reward:
            reward_ok = False
            break

    theta_coef, sigma = 0.15, 0.2
    noise = OUNoise(1, theta=theta_coef, sigma=sigma)
    noise_rng = np.random.default_rng(6)
    steps = 1_000_000
    samples = np.empty(steps)
    for i in range(steps):
        samples[i] = noise.sample(noise_rng)[0]
    measured = float(samples[1_000:].std())
    expected = OUNoise.stationary_std(theta_coef, sigma)
    noise_ok = abs(measured - expected) / expected < 0.10
    ok = reward_ok and noise_ok
    assert _report(
        "pendulum-reward-and-ou",
        ok,
        f"reward exact {reward_ok}, ou std {measured:.4f} vs {expected:.4f}",
    )


def test_soft_update_algebra() -> None:
    """tau in {0, 0.5, 1} must give exactly target, midpoint, online;
    repeated small-tau updates must contract to the online net."""
    rng = np.random.default_rng(8)
    online = init_mlp((3, 5, 2), rng)
    checks = []
    for tau in (0.0, 0.5, 1.0):
        pair = NetworkPair(copy.deepcopy(online))
        target = pair.target
        target.params[...] = init_mlp((3, 5, 2), rng).params
        expected = [
            (1.0 - tau) * t + tau * o
            for t, o in zip(target.weights, online.weights)
        ]
        soft_update(pair, tau)
        checks.append(
            all(np.array_equal(e, w) for e, w in zip(expected, target.weights))
        )
    pair = NetworkPair(copy.deepcopy(online))
    target = pair.target
    target.params[...] = init_mlp((3, 5, 2), rng).params
    for _ in range(400):
        soft_update(pair, 0.1)
    gap = max(
        float(np.max(np.abs(t - o)))
        for t, o in zip(
            target.weights + target.biases, online.weights + online.biases
        )
    )
    ok = all(checks) and gap < 1e-12
    assert _report(
        "soft-update-algebra", ok, f"exact {checks}, contraction gap {gap:.2e}"
    )


def test_run_determinism(tmp_path) -> None:
    """The same configuration must produce byte-identical run.csv and
    checkpoint files on repeated runs."""
    cfg = RunConfig(
        env="cartpole", agent="dqn", seed=17, episodes=15,
        eval_interval=5, eval_episodes=10, buffer_capacity=2_000,
        dqn=DqnConfig(warmup=64, batch_size=16, hidden_sizes=(16,)),
    )
    run_to_dir(cfg, tmp_path / "first")
    run_to_dir(cfg, tmp_path / "second")
    csv_same = (tmp_path / "first" / "run.csv").read_bytes() == (
        tmp_path / "second" / "run.csv"
    ).read_bytes()
    ckpt_same = (tmp_path / "first" / "checkpoint.txt").read_bytes() == (
        tmp_path / "second" / "checkpoint.txt"
    ).read_bytes()
    ok = csv_same and ckpt_same
    assert _report(
        "run-determinism", ok, f"csv identical {csv_same}, checkpoint {ckpt_same}"
    )
