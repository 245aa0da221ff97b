"""The benchmark's workloads: which replaykit runs it drives.

Each workload is a flat ``config_from_mapping`` mapping plus a fixed
episode budget. In-training evaluation is pushed past the budget, so a
run never stops early and always does the same work for a given seed.
Why each workload was chosen is recorded in BENCHMARK.json and
README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict[str, str]
    episodes: int
    # train_steps_per_s times the first this many env steps, which every
    # seed reaches within the episode budget.
    timed_steps: int
    # Episodes per evaluate_checkpoint call in the eval phase.
    eval_episodes: int
    # Hooks the traced run must see called at least once; a hook that
    # exists but records no calls fails the run.
    required_hooks: tuple[str, ...]

    def mapping(self, seed: int) -> dict[str, str]:
        """The run's flat config for ``seed``."""
        return {
            **self.settings,
            "seed": str(seed),
            "episodes": str(self.episodes),
            "eval_interval": str(self.episodes + 1),
        }


_COMMON_HOOKS = (
    "envs.step",
    "nn.forward",
    "nn.backward",
    "nn.adam_step",
    "agents.act",
    "agents.update",
    "replay.Transition",
    "replay.append",
    "replay.sample",
    "hindsight.augment_observation",
    "harness.build_run",
    "harness.train",
    "harness.emit_csv",
    "harness.save_checkpoint",
    "harness.evaluate_checkpoint",
    "harness.evaluate_policy",
)

_PER_HOOKS = (
    "prioritized.sample",
    "prioritized.update_priorities",
    "prioritized.SumTree.set",
)

# CartPole episodes end when the pole falls, so a seed's step count
# depends on how fast it learns: 160 episodes take 3.5-5k steps. Timing
# only the first 3,000 steps makes every seed's timed work the same mix
# of 1,000 warm-up steps, which make no updates, and 2,000 learning
# steps. The buffer holds 1,000 transitions, the warm-up size, so FIFO
# eviction and PER slot overwrite run on every learning step.
_CARTPOLE = {"env": "cartpole", "agent": "dqn", "buffer_capacity": "1000"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cartpole-dqn-uniform",
            # The same buffer as cartpole-dqn-cper, so the two differ
            # only in the strategies.
            settings=_CARTPOLE,
            episodes=160,
            timed_steps=3000,
            eval_episodes=100,
            required_hooks=_COMMON_HOOKS + ("nn.hard_copy", "replay.sample_uniform"),
        ),
        Workload(
            name="cartpole-dqn-cper",
            settings={**_CARTPOLE, "combined": "true", "prioritized": "true"},
            episodes=160,
            timed_steps=3000,
            eval_episodes=100,
            required_hooks=_COMMON_HOOKS
            + _PER_HOOKS
            + ("nn.hard_copy", "replay.sample_combined"),
        ),
        Workload(
            name="pendulum-ddpg-hper",
            # Pendulum episodes are always 200 steps: 1,600 train steps
            # and 2,000 steps per eval call, whatever the seed.
            settings={
                "env": "pendulum",
                "agent": "ddpg",
                "hindsight": "true",
                "prioritized": "true",
            },
            episodes=8,
            timed_steps=1600,
            eval_episodes=10,
            required_hooks=_COMMON_HOOKS
            + _PER_HOOKS
            + (
                "nn.soft_update",
                "hindsight.relabeled_transitions",
                "hindsight.goal_reward",
            ),
        ),
    )
}
