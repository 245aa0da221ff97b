"""Goal-append guard: only ``hindsight.py`` builds goal-augmented arrays.

A goal-conditioned learner reads each observation with its goal
appended after the state, and ``hindsight.augment_observation`` is the
one function that lays that out. This test fails on any call to
``np.concatenate``, ``np.hstack`` or ``np.broadcast_to`` outside
``hindsight.py``, so no other module joins a goal onto a state, and on
any name containing ``goal`` among ``replay.py``'s parameters,
attributes and locals, so the replay buffer stores rows without a goal
of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "replaykit"
JOINS = {"concatenate", "hstack", "broadcast_to"}


def array_joins(source: str) -> list[str]:
    """``"<line>: np.<name>"`` for every call of a joining function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in JOINS:
                found.append((node.lineno, f"np.{name}"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def goal_names(source: str) -> list[str]:
    """``"<line>: <name>"`` for every parameter, attribute or variable
    whose name contains ``goal``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if "goal" in name.lower():
            found.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(set(found))]


def test_guard_flags_joins_and_goal_names() -> None:
    source = (
        '"""A docstring may say goal and np.concatenate."""\n'
        "import numpy as np\n"
        "from numpy import hstack\n"
        "def append(self, state, goal=None):\n"
        "    x = np.concatenate([state, goal])\n"
        "    self._goals[0] = hstack([x, np.broadcast_to(g, (2, 1))])\n"
        "    n_goal = 'goal'\n"
        "    np.stack([x, x])\n"
    )
    assert array_joins(source) == ["5: np.concatenate", "6: np.broadcast_to", "6: np.hstack"]
    assert goal_names(source) == ["4: goal", "5: goal", "6: _goals", "7: n_goal"]


def test_only_hindsight_appends_goals() -> None:
    modules = sorted(SRC.glob("*.py"))
    assert {"hindsight.py", "replay.py", "agents.py", "harness.py"} <= {p.name for p in modules}
    joins = {
        p.name: array_joins(p.read_text(encoding="utf-8"))
        for p in modules
        if p.name != "hindsight.py"
    }
    assert {name: hits for name, hits in joins.items() if hits} == {}


def test_replay_has_no_goal_parameter_column_or_local() -> None:
    assert goal_names((SRC / "replay.py").read_text(encoding="utf-8")) == []
