"""Agent-kind dispatch guard: only ``agents.py`` tells DQN from DDPG.

Every other module under ``src/replaykit`` reaches an agent through the
``AGENTS`` registry and the facts on the agent classes. This test fails
on any string literal ``"dqn"`` or ``"ddpg"`` outside ``agents.py``, so
no module compares with an agent name or keys a dict by one, and on any
use of the names ``DqnAgent`` or ``DdpgAgent`` other than an import, so
no module calls ``isinstance`` with an agent class. The one allowed
literal is the default of ``RunConfig.agent``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "replaykit"
AGENT_NAMES = {"dqn", "ddpg"}
AGENT_CLASSES = {"DqnAgent", "DdpgAgent"}


def _run_config_agent_default(tree: ast.AST) -> ast.AST | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "agent"
                ):
                    return stmt.value
    return None


def agent_dispatch(source: str) -> list[str]:
    """``"<line>: <what>"`` for every agent name literal and every use of
    an agent class name in ``source``."""
    tree = ast.parse(source)
    allowed = _run_config_agent_default(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node is not allowed:
            if isinstance(node.value, str) and node.value in AGENT_NAMES:
                found.append((node.lineno, f"agent name {node.value!r}"))
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in AGENT_CLASSES:
            found.append((node.lineno, f"agent class {name}"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_guard_flags_comparisons_dict_keys_and_isinstance() -> None:
    source = (
        '"""Docstrings may say dqn and ddpg."""\n'
        "from .agents import DqnAgent\n"
        "if cfg.agent == 'dqn':\n"
        "    net = {'ddpg': 'actor'}[kind]\n"
        "ok = kind in ('dqn', 'ddpg') or isinstance(a, (agents.DdpgAgent, int))\n"
        "if isinstance(agent, DqnAgent): pass\n"
        "class RunConfig:\n"
        "    agent: str = 'dqn'\n"
        "class Other:\n"
        "    agent: str = 'ddpg'\n"
    )
    assert agent_dispatch(source) == [
        "3: agent name 'dqn'",
        "4: agent name 'ddpg'",
        "5: agent class DdpgAgent",
        "5: agent name 'ddpg'",
        "5: agent name 'dqn'",
        "6: agent class DqnAgent",
        "10: agent name 'ddpg'",
    ]


def test_no_module_but_agents_dispatches_on_agent_kind() -> None:
    modules = sorted(SRC.glob("*.py"))
    assert {"agents.py", "config.py", "harness.py", "cli.py"} <= {p.name for p in modules}
    found = {
        p.name: agent_dispatch(p.read_text(encoding="utf-8"))
        for p in modules
        if p.name != "agents.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
