"""Per-layer tracing of replaykit from outside: spans are recorded by
wrapping the library's public functions, without editing the library.

A hook names one span (``layer.what``) and the functions it wraps as
``module:attr.path`` targets. Modules inside replaykit import many of
these functions by name (``from .nn import forward``), so a module-level
function is replaced at every binding that refers to it; methods are
replaced on the class that defines them. A target that no longer
exists is reported as absent instead of failing, so the hook table
survives refactors that delete or rename a helper.

Spans (name, parent, start, end) are kept in flat in-memory arrays and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Hook:
    name: str
    targets: tuple[str, ...]
    # Optional callback(tracer, name, result) run after the call,
    # outside the timed interval, for ratios measured at this boundary.
    observe: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _observe_sample(tracer, name, result) -> None:
    indices = np.asarray(getattr(result, "indices", ()))
    if indices.size:
        tracer.note(name + ".unique_frac", np.unique(indices).size / indices.size)


def _observe_goal_reward(tracer, name, result) -> None:
    tracer.note(name + ".success", float(bool(result[1])))


def _targets(module: str, *paths: str) -> tuple[str, ...]:
    return tuple(f"replaykit.{module}:{p}" for p in paths)


_ENV_CLASSES = ("CartPole", "MountainCar", "Pendulum")

# ``replay.sample`` and ``replay.append`` wrap the replay stack, which
# lives in harness but is the entry point into the replay layer: the
# spans of every strategy's sampler and writer nest under them.
HOOKS = (
    Hook("envs.step", _targets("envs", *(f"{c}.step" for c in _ENV_CLASSES))),
    Hook("envs.reset", _targets("envs", *(f"{c}.reset" for c in _ENV_CLASSES))),
    Hook("nn.forward", _targets("nn", "forward")),
    Hook("nn.backward", _targets("nn", "backward")),
    Hook("nn.adam_step", _targets("nn", "adam_step")),
    Hook("nn.soft_update", _targets("nn", "soft_update")),
    Hook("nn.hard_copy", _targets("nn", "hard_copy")),
    Hook("nn.save_checkpoint", _targets("nn", "save_checkpoint")),
    Hook("nn.load_checkpoint", _targets("nn", "load_checkpoint")),
    Hook("agents.act", _targets("agents", "DqnAgent.act", "DdpgAgent.act")),
    Hook("agents.update", _targets("agents", "DqnAgent.update", "DdpgAgent.update")),
    Hook("agents.batch_arrays", _targets("agents", "batch_arrays")),
    Hook("agents.critic_update", _targets("agents", "DdpgAgent.critic_update")),
    Hook("agents.actor_update", _targets("agents", "DdpgAgent.actor_update")),
    Hook("replay.Transition", _targets("replay", "Transition.__init__")),
    Hook("replay.append", _targets("harness", "ReplayStack.append")),
    Hook("replay.ReplayBuffer.append", _targets("replay", "ReplayBuffer.append")),
    Hook("replay.sample", _targets("harness", "ReplayStack.sample"), _observe_sample),
    Hook("replay.sample_uniform", _targets("replay", "sample_uniform")),
    Hook("replay.sample_combined", _targets("replay", "sample_combined")),
    Hook("replay.get", _targets("replay", "ReplayBuffer.get")),
    Hook("replay.rows_to_batch", _targets("replay", "rows_to_batch")),
    Hook("prioritized.insert", _targets("prioritized", "PrioritizedSampler.insert")),
    Hook("prioritized.sample", _targets("prioritized", "PrioritizedSampler.sample")),
    Hook(
        "prioritized.update_priorities",
        _targets("prioritized", "PrioritizedSampler.update_priorities"),
    ),
    Hook("prioritized.SumTree.set", _targets("prioritized", "SumTree.set")),
    Hook("prioritized.SumTree.leaf", _targets("prioritized", "SumTree.leaf")),
    Hook("prioritized.SumTree.sample_batch", _targets("prioritized", "SumTree.sample_batch")),
    Hook("hindsight.augment_observation", _targets("hindsight", "augment_observation")),
    Hook("hindsight.Episode.append", _targets("hindsight", "Episode.append")),
    Hook(
        "hindsight.relabeled_transitions",
        _targets("hindsight", "relabeled_transitions"),
    ),
    Hook(
        "hindsight.goal_reward",
        _targets("hindsight", "pendulum_goal_reward", "mountaincar_goal_reward"),
        _observe_goal_reward,
    ),
    Hook("harness.build_run", _targets("harness", "build_run")),
    Hook("harness.train", _targets("harness", "train")),
    Hook("harness.emit_csv", _targets("harness", "emit_csv")),
    Hook("harness.write_manifest", _targets("harness", "write_manifest")),
    Hook("harness.save_checkpoint", _targets("harness", "save_run_checkpoint")),
    Hook("harness.evaluate_checkpoint", _targets("harness", "evaluate_checkpoint")),
    Hook("harness.evaluate_policy", _targets("harness", "evaluate_policy")),
)


def _resolve(target: str):
    """(owner, attribute, raw value) for ``module:attr.path``, where the
    owner of a method is the class in the MRO that defines it; None if
    any part is missing."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return klass, attr, vars(klass)[attr]
        return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _package_modules(package: str):
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]


class Patches:
    """Replaces functions at every binding and puts them all back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self._done: set[int] = set()

    def replace(self, target: str, make_wrapper) -> bool:
        """Wrap ``target`` with ``make_wrapper(function)``; False when
        the target does not exist."""
        resolved = _resolve(target)
        if resolved is None:
            return False
        owner, attr, raw = resolved
        if id(raw) in self._done:
            return True  # inherited method already wrapped via its base
        self._done.add(id(raw))
        if isinstance(owner, type):
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(make_wrapper(raw.__func__))
            else:
                wrapped = make_wrapper(raw)
            self._set(owner, attr, wrapped)
            return True
        wrapped = make_wrapper(raw)
        package = target.partition(":")[0].split(".", 1)[0]
        for module in _package_modules(package):
            for name, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, name, wrapped)
        return True

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._done.clear()


class Tracer:
    """Records one span per call of each hooked function."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = {h.name: h for h in hooks}
        self.names = list(self.hooks)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.notes: dict[str, list[float]] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches = Patches()

    def note(self, key: str, value: float) -> None:
        self.notes.setdefault(key, []).append(value)

    def _wrapper(self, hook: Hook):
        nid = self.names.index(hook.name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        observe = hook.observe

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(name_id)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                end.append(0)
                stack.append(idx)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
                if observe is not None:
                    observe(self, hook.name, result)
                return result

            return traced

        return make

    def __enter__(self) -> "Tracer":
        for hook in self.hooks.values():
            make = self._wrapper(hook)
            for target in hook.targets:
                if not self._patches.replace(target, make) and target not in self.absent:
                    self.absent.append(target)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def hook_present(self, name: str) -> bool:
        return any(t not in self.absent for t in self.hooks[name].targets)


def _inside(start: np.ndarray, outer_start: np.ndarray, outer_end: np.ndarray) -> np.ndarray:
    """Mask of spans starting inside one of the (sorted, disjoint) outer
    intervals. Spans nest properly in one thread, so a span that starts
    inside an interval also ends inside it."""
    pos = np.searchsorted(outer_start, start, side="right") - 1
    mask = pos >= 0
    mask[mask] = start[mask] <= outer_end[pos[mask]]
    return mask


def layer_metrics(tracer: Tracer, train_steps: int) -> dict[str, float]:
    """Per-layer numbers from the recorded spans.

    ``train_steps`` is the number of env steps taken by all traced
    train() calls. Shares are self time (a span's duration minus the
    time its child spans cover) divided by train() wall time. Per-call
    timings use the calls made inside train(); a function that train()
    never calls is timed over all its calls.
    """
    a = tracer.arrays()
    name_id, parent = a["name_id"], a["parent"]
    start, end = a["start_ns"], a["end_ns"]
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = dur - covered
    names = tracer.names
    ids = {name: i for i, name in enumerate(names)}
    layer_of = np.array([tracer.hooks[n].layer for n in names])

    trains = np.flatnonzero(name_id == ids["harness.train"])
    train_start, train_end = start[trains], end[trains]
    train_ns = float((train_end - train_start).sum())
    in_train = _inside(start, train_start, train_end)
    evals = np.flatnonzero(name_id == ids["harness.evaluate_checkpoint"])
    in_eval = _inside(start, start[evals], end[evals])

    out: dict[str, float] = {}
    for name, nid in ids.items():
        mine = name_id == nid
        timed = mine & in_train if np.any(mine & in_train) else mine
        durations = dur[timed]
        p50, p99 = np.percentile(durations, [50, 99]) / 1e3 if durations.size else (0.0, 0.0)
        out[f"{name}.p50_us"] = float(p50)
        out[f"{name}.p99_us"] = float(p99)
        out[f"{name}.n"] = int(durations.size)
        out[f"{name}.s"] = float(np.median(durations) / 1e9) if durations.size else 0.0
        out[f"{name}.calls"] = int(np.count_nonzero(mine))
        out[f"{name}.calls_per_step"] = np.count_nonzero(mine & in_train) / train_steps
        out[f"{name}.share"] = float(dur[mine & in_train].sum()) / train_ns
    for layer in sorted(set(layer_of)):
        in_layer = layer_of[name_id] == layer
        out[f"{layer}.share"] = float(self_ns[in_layer & in_train].sum()) / train_ns
    out["harness.train.self_share"] = float(self_ns[trains].sum()) / train_ns

    updates = start[name_id == ids["agents.update"]]
    first = np.searchsorted(updates, train_start)
    warmup = [
        (updates[f] - s) / (e - s) if f < updates.size and updates[f] <= e else 1.0
        for f, s, e in zip(first, train_start, train_end)
    ]
    out["harness.warmup_share"] = float(np.mean(warmup)) if warmup else 0.0
    steps_in_eval = np.count_nonzero((name_id == ids["envs.step"]) & in_eval)
    out["envs.step.eval_calls"] = steps_in_eval / max(evals.size, 1)

    unique = tracer.notes.get("replay.sample.unique_frac", [])
    out["replay.sample.unique_frac"] = float(np.mean(unique)) if unique else 0.0
    success = tracer.notes.get("hindsight.goal_reward.success", [])
    out["hindsight.relabel_success_frac"] = float(np.mean(success)) if success else 0.0
    out["trace.spans"] = int(dur.size)
    out["trace.spans_per_step"] = dur.size / train_steps
    return out
