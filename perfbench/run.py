"""replaykit benchmark: train and eval throughput of three replay
workloads, driven from outside through the library's public API.

Run from the repository root:

    python3 perfbench/run.py --workload cartpole-dqn-cper --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics. The metric
names and units are the ones listed in BENCHMARK.json. The last line of
standard output is one JSON object; the full results, with fingerprints
and machine details, go to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, pinned before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Fresh-process starts before the first repeat and after each untraced
# one, spread over the run; setup_s is their median.
SETUP_STARTS_FIRST = 3
SETUP_STARTS_PER_REPEAT = 2
# Env steps per timed chunk. Chunks that do the same work are pooled
# across positions and repeats; see chunk_floor_total.
CHUNK_STEPS = 10
# The eval phase repeats evaluate_checkpoint until it has run this long.
EVAL_MIN_SECONDS = 0.5
# Timed train+eval repeats per untraced run, at least.
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 170

_SETUP_PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import replaykit
from replaykit.harness import build_run, config_from_mapping
build_run(config_from_mapping(json.loads(sys.argv[2])))
print("ready", flush=True)
"""


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_library():
    """Import replaykit from this checkout's sources, nowhere else."""
    sys.path.insert(0, str(SRC))
    import replaykit.harness as harness

    if Path(harness.__file__).resolve().parents[1] != SRC:
        _fail(f"imported replaykit from {harness.__file__}, not {SRC}")
    return harness


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"missing {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(mapping: dict[str, str]) -> float:
    """Wall time from spawning a fresh interpreter until it has imported
    replaykit and returned from build_run."""
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), json.dumps(mapping)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_csv(path, episodes: int, steps: int) -> list[str]:
    with open(path, encoding="ascii") as fh:
        header, *rows = fh.read().splitlines()
    columns = header.split(",")
    reward_col, steps_col = columns.index("train_reward"), columns.index("steps")
    rewards = [float(r.split(",")[reward_col]) for r in rows]
    step_counts = [int(r.split(",")[steps_col]) for r in rows]
    problems = []
    if len(rows) != episodes:
        problems.append(f"run.csv has {len(rows)} episodes, expected {episodes}")
    if not all(math.isfinite(r) for r in rewards):
        problems.append("run.csv has a non-finite train_reward")
    if any(b <= a for a, b in zip(step_counts, step_counts[1:])):
        problems.append("run.csv steps are not strictly increasing")
    if step_counts and step_counts[-1] != steps:
        problems.append(f"run.csv ends at {step_counts[-1]} steps, train() took {steps}")
    return problems


def _check_stack(exp, steps: int) -> list[str]:
    """Buffer fill and, under PER, the sum tree's root against its leaves."""
    cfg = exp.config
    relabeled = steps if cfg.hindsight else 0
    expected = min(cfg.resolved_buffer_capacity(), steps + relabeled)
    problems = []
    if len(exp.stack) != expected:
        problems.append(f"stack holds {len(exp.stack)}, expected {expected}")
    nodes = getattr(getattr(getattr(exp.stack, "per", None), "tree", None), "nodes", None)
    if nodes is not None:
        root, leaf_sum = float(nodes[0]), float(nodes[len(nodes) // 2 :].sum())
        if not math.isclose(root, leaf_sum, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"sum tree root {root!r} != leaf sum {leaf_sum!r}")
    return problems


class _Probe:
    """Watches a run from outside. It wraps every binding of
    harness.train to keep the Experiment; the env class's step to count
    env steps and note the time every CHUNK_STEPS of them; and the env's
    reset, the agent's update and every binding of nn.forward to count
    them. Each chunk between two marks gets a kind: its position if
    first or last, else its counts of updates, resets and forward
    passes. Chunks of one kind do the same work."""

    def __init__(self, patches) -> None:
        self.patches = patches
        self.exp = None
        self.marks: list[float] = []
        self.kinds: list[str] = []
        self.env_steps = self.updates = self.resets = self.forwards = 0

    def wrap_train(self, train):
        def watched(exp):
            self.exp = exp
            env_class, agent_class = type(exp.env), type(exp.agent)
            for cls, attr, wrap in (
                (env_class, "step", self._wrap_step),
                (env_class, "reset", self._wrap_counter("resets")),
                (agent_class, "update", self._wrap_counter("updates")),
            ):
                if not self.patches.replace(f"{cls.__module__}:{cls.__qualname__}.{attr}", wrap):
                    raise RuntimeError(f"cannot time chunks: {cls.__qualname__}.{attr} is gone")
            # Optional: without it, kinds only lose the forward count.
            self.patches.replace("replaykit.nn:forward", self._wrap_counter("forwards"))
            return self.timed(train, exp)

        return watched

    def timed(self, fn, *args):
        """Call fn with fresh counts and marks: its start, every
        CHUNK_STEPS env steps, its end."""
        self.env_steps = self.updates = self.resets = self.forwards = 0
        self.kinds = []
        self.marks = [time.perf_counter()]
        result = fn(*args)
        self.marks.append(time.perf_counter())
        self.kinds.append("last")
        self.kinds[0] = "first"
        return result

    def segments(self) -> list[float]:
        """Durations between consecutive marks."""
        return [b - a for a, b in zip(self.marks, self.marks[1:])]

    def _wrap_counter(self, field: str):
        def make(fn):
            def counted(*args, **kwargs):
                setattr(self, field, getattr(self, field) + 1)
                return fn(*args, **kwargs)

            return counted

        return make

    def _wrap_step(self, step):
        def counted(*args, **kwargs):
            result = step(*args, **kwargs)
            self.env_steps += 1
            if self.env_steps % CHUNK_STEPS == 0:
                self.marks.append(time.perf_counter())
                self.kinds.append(f"u{self.updates}r{self.resets}f{self.forwards}")
                self.updates = self.resets = self.forwards = 0
            return result

        return counted


def run_once(harness, workload, seed: int, out_dir: Path) -> dict:
    """One training run written by run_to_dir, then the eval phase on
    its checkpoint. Returns timings, fingerprints and failed checks."""
    from spans import Patches

    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = harness.config_from_mapping(workload.mapping(seed))
    patches = Patches()
    probe = _Probe(patches)
    try:
        patches.replace("replaykit.harness:train", probe.wrap_train)
        result = harness.run_to_dir(cfg, out_dir)
        steps = probe.env_steps
        train_segments, train_kinds = probe.segments(), probe.kinds
        problems = _check_csv(result["csv"], workload.episodes, steps)
        problems += _check_stack(probe.exp, steps)
        if steps < workload.timed_steps:
            problems.append(f"train() took {steps} steps, fewer than the {workload.timed_steps} timed")
        probe.exp = result = None
        gc.collect()

        checkpoint = out_dir / "checkpoint.txt"
        outputs = set()
        eval_steps = set()
        eval_segments, eval_kinds = [], set()
        while sum(map(sum, eval_segments)) < EVAL_MIN_SECONDS:
            outputs.add(
                probe.timed(harness.evaluate_checkpoint, checkpoint, workload.eval_episodes, seed)
            )
            eval_steps.add(probe.env_steps)
            eval_segments.append(probe.segments())
            eval_kinds.add(tuple(probe.kinds))
    finally:
        patches.restore()
    if not all(math.isfinite(v) for pair in outputs for v in pair):
        problems.append(f"evaluate_checkpoint returned non-finite {sorted(outputs)}")
    if len(outputs) != 1 or len(eval_steps) != 1 or len(eval_kinds) != 1:
        problems.append(
            f"evaluate_checkpoint calls differ: {sorted(outputs)}, steps {sorted(eval_steps)}"
        )
    return {
        "env_steps": steps,
        "train_s": sum(train_segments),
        "train_segments_s": train_segments,
        "train_kinds": train_kinds,
        "eval_call_steps": eval_steps.pop(),
        "eval_segments_s": eval_segments,
        "eval_kinds": list(eval_kinds.pop()),
        "eval_output": list(outputs.pop()),
        "run_csv_sha256": _sha256(out_dir / "run.csv"),
        "checkpoint_sha256": _sha256(checkpoint),
        "problems": problems,
    }


def _attempt(harness, workload, seed, out_dir, log: list) -> None:
    """run_once at the boundary that must keep going: an exception is
    reported and logged as a failed run."""
    try:
        log.append(run_once(harness, workload, seed, out_dir))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        log.append({"error": traceback.format_exc(limit=3)})


def chunk_floor_total(runs: list[tuple[list[float], list[str]]]) -> float:
    """Time of one pass over the chunks of ``runs[0]``, each chunk taken
    at the fastest time seen for any chunk of its kind.

    ``runs`` holds (durations, kinds) of passes that do identical work.
    On a shared host, other tenants slow the CPU 1.5-2.5x in phases of
    a fraction of a second to minutes, so a pass rarely runs fast from
    end to end, but over hundreds of chunks of one kind some fall in a
    fast phase. Passes whose kinds differ from the first's did other
    work (a failed check) and are left out."""
    kinds = runs[0][1]
    fastest: dict[str, float] = {}
    for durations, run_kinds in runs:
        if run_kinds != kinds:
            continue
        for kind, duration in zip(run_kinds, durations):
            fastest[kind] = min(duration, fastest.get(kind, math.inf))
    return sum(fastest[kind] for kind in kinds)


def train_steps_per_s(reps: list, timed_steps: int) -> float:
    """The first ``timed_steps`` env steps of train() over their time,
    taken by chunk_floor_total across the repeats."""
    reps = [r for r in reps if "error" not in r]
    if not reps:
        return 0.0
    chunks = timed_steps // CHUNK_STEPS
    runs = [(r["train_segments_s"][:chunks], r["train_kinds"][:chunks]) for r in reps]
    return timed_steps / chunk_floor_total(runs)


def eval_steps_per_s(reps: list) -> float:
    """Env steps of one evaluate_checkpoint call over its time, taken by
    chunk_floor_total across all calls."""
    reps = [r for r in reps if "error" not in r]
    if not reps:
        return 0.0
    runs = [(segments, r["eval_kinds"]) for r in reps for segments in r["eval_segments_s"]]
    return reps[0]["eval_call_steps"] / chunk_floor_total(runs)


def _machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_info = "unknown"
    return {
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def measure(args, spec: dict) -> int:
    harness = _load_library()
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run_dir = OUT / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    mapping = workload.mapping(args.seed)
    setup = []
    if not args.trace:
        setup += [setup_seconds(mapping) for _ in range(SETUP_STARTS_FIRST)]

    untraced: list = []
    traced: list = []
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        _attempt(harness, workload, args.seed, run_dir / f"run{len(untraced)}", untraced)
        if len(untraced) == 1:
            # The peak of one train+eval pass, before repeats add to it.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is None:
            setup += [setup_seconds(mapping) for _ in range(SETUP_STARTS_PER_REPEAT)]
        else:
            with tracer:
                _attempt(harness, workload, args.seed, run_dir / f"traced{len(traced)}", traced)
        now = time.perf_counter()
        enough = len(untraced) >= (1 if tracer else MIN_REPEATS)
        if enough and now + (now - started) > deadline:
            break

    runs = untraced + traced
    values = {}
    if tracer is not None:
        traced_steps = sum(r["env_steps"] for r in traced if "error" not in r)
        if traced_steps:
            values = layer_metrics(tracer, traced_steps)
            plain = train_steps_per_s(untraced, workload.timed_steps)
            with_trace = train_steps_per_s(traced, workload.timed_steps)
            values["trace.untraced_train_steps_per_s"] = plain
            values["trace.traced_train_steps_per_s"] = with_trace
            values["trace.overhead_frac"] = 1.0 - with_trace / plain if plain else 0.0
        silent = [
            name
            for name in workload.required_hooks
            if tracer.hook_present(name) and values.get(f"{name}.calls", 0) == 0
        ]
        for rep in traced:
            rep.setdefault("problems", []).extend(f"hook {n} recorded no calls" for n in silent)

    # Output checks: every run clean, and every run, traced or not,
    # writes the same bytes as the first.
    good = [r for r in runs if "error" not in r]
    reference = good[0] if good else {}
    failed = 0
    for rep in runs:
        if "error" not in rep:
            for key in ("run_csv_sha256", "checkpoint_sha256", "env_steps"):
                if rep[key] != reference[key]:
                    rep["problems"].append(f"{key} differs from the first run")
        if "error" in rep or rep["problems"]:
            failed += 1
        for problem in rep.get("problems", []):
            print(f"perfbench: check failed: {problem}", file=sys.stderr)

    results = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "mapping": mapping,
        "fingerprint": {
            k: reference.get(k) for k in ("env_steps", "run_csv_sha256", "checkpoint_sha256")
        },
        "setup_s_samples": setup,
        "runs": untraced,
        "traced_runs": traced,
    }
    if tracer is None:
        values = {
            "train_steps_per_s": train_steps_per_s(untraced, workload.timed_steps),
            "eval_steps_per_s": eval_steps_per_s(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        listed = spec["end_to_end"]
    else:
        results["absent_hooks"] = tracer.absent
        tracer.save(run_dir / "spans.npz")
        listed = spec["per_layer"]
    values["error_rate"] = failed / len(runs)
    results["metrics"] = values

    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(results, fh, indent=1)

    print(f"{workload.name} seed {args.seed}: {len(runs)} runs, {failed} failed")
    print(f"  machine {json.dumps(results['machine'])}")
    print(f"  fingerprint {json.dumps(results['fingerprint'])}")
    unknown = [m["name"] for m in listed if m["name"] not in values]
    if unknown and len(values) > 1:
        _fail(f"BENCHMARK.json lists metrics this benchmark does not compute: {unknown}")
    metrics = {}
    for metric in listed:
        value = values.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<48} {value:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<48} {values['error_rate']:>14.6g} fraction")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def measure_all(args, spec: dict) -> int:
    """Every workload in turn, each in its own fresh process."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "replaykit" / "__init__.py").is_file():
        _fail(f"no replaykit sources under {SRC}")
    if args.workload == "all":
        return measure_all(args, spec)
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
