"""Doc-name gate: every name the docs cite still exists.

Three kinds of reference are checked, so a rename fails here instead of
leaving the docs stale:

* every backticked dotted name in README.md (``module.name``,
  ``Class.method``; a call's arguments and subscripts are dropped, and
  fenced code blocks are skipped, since ``test_readme_example.py`` runs
  the one that is code);
* every double-backticked dotted name and every ``:meth:``, ``:func:``,
  ``:class:``, ``:data:``, ``:attr:`` or ``:mod:`` target in the
  docstrings and comments of ``src/replaykit``;
* every ``tests/<file>.py`` or ``tests/<file>.py::<test>`` citation in
  either place.

A dotted name resolves when its root is a replaykit module, a name
defined in one, a parameter of the function or an attribute of the
class whose docstring cites it, or on ``ALLOWED_ROOTS``; and each later
part is an attribute, a dataclass field, a slot, or an attribute that
the class's methods assign on ``self``. Past a field, an instance
attribute or a property the type is unknown, so the rest of the name
goes unchecked. A role target with no dot resolves in the citing class,
then its module, then anywhere in replaykit. A README span that names a
file of the repository (``BENCH_20.json``) is a file citation; one that
looks like a file and is not there fails as an unknown root.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import io
import re
import tokenize
from functools import cache
from pathlib import Path
from typing import NamedTuple

import replaykit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "replaykit"
README = ROOT / "README.md"

# Roots that are not replaykit names: numpy and stdlib modules, files a
# run writes, and names the docs use outside the function or class that
# has them (``harness.train``'s local ``agent``, the agents' ``scaler``).
ALLOWED_ROOTS = {
    "np", "os", "copy", "time",
    "run.csv", "manifest.txt", "checkpoint.txt", "summary.csv",
    "agent", "scaler",
}

MODULES = {p.stem: importlib.import_module(f"replaykit.{p.stem}") for p in sorted(SRC.glob("*.py"))
           if p.stem != "__init__"}

DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
ROLE = re.compile(r":(?:meth|func|class|data|attr|mod):`~?([\w.]+)`")
DOUBLE = re.compile(r"``([^`]+)``")
SINGLE = re.compile(r"`([^`]+)`")
TEST_CITATION = re.compile(r"tests/(\w+\.py)(?:::(\w+))?")


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@cache
def defined() -> dict[str, list]:
    """Name -> the objects of that name that replaykit modules define."""
    table: dict[str, list] = {}
    for name, module in MODULES.items():
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        for top in _top_level_names(tree):
            table.setdefault(top, []).append(getattr(module, top))
    return table


@cache
def instance_attributes(cls: type) -> frozenset[str]:
    """Dataclass fields, slots and ``self.<name>`` assignments of ``cls``
    and its replaykit bases."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    for klass in cls.__mro__:
        if not klass.__module__.startswith("replaykit"):
            continue
        names.update(getattr(klass, "__slots__", ()))
        for node in ast.walk(ast.parse(inspect.getsource(klass))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                names.add(node.attr)
    return frozenset(names)


def _walk(obj, parts: list[str]) -> bool:
    for part in parts:
        if isinstance(obj, property):
            return True
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif inspect.isclass(obj) and part in instance_attributes(obj):
            return True
        else:
            return False
    return True


def resolves(name: str, local_roots=frozenset()) -> bool:
    """Whether the dotted ``name`` names something that exists."""
    root, *rest = name.split(".")
    if name in ALLOWED_ROOTS or root in ALLOWED_ROOTS or root in local_roots:
        return True
    if root == "replaykit":
        candidates = [replaykit]
    elif root in MODULES:
        candidates = [MODULES[root]]
    else:
        candidates = defined().get(root, [])
    return any(_walk(obj, rest) for obj in candidates)


def resolves_in(target: str, module, cls) -> bool:
    """Whether a role target with no dot names an attribute of ``cls``,
    of ``module``, or anything replaykit defines or is."""
    return (
        (cls is not None and (hasattr(cls, target) or target in instance_attributes(cls)))
        or hasattr(module, target)
        or target in defined()
        or target in MODULES
    )


def dotted_name(span: str) -> str | None:
    """The dotted name a backticked span cites, with call arguments and
    subscripts dropped; None when the span is not one."""
    span = " ".join(span.split())
    previous = None
    while previous != span:
        previous, span = span, re.sub(r"\([^()]*\)|\[[^\[\]]*\]", "", span)
    return span if DOTTED.fullmatch(span) else None


def readme_names() -> list[str]:
    """The dotted names of README.md's inline code spans that are not
    files of the repository, fenced blocks left out."""
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    spans = (span for span in SINGLE.findall(text) if not (ROOT / span.strip()).is_file())
    return [name for name in map(dotted_name, spans) if name]


class Citation(NamedTuple):
    """One docstring or comment of ``src/replaykit``, with the module,
    the class (or None) and the function parameters in scope there."""

    text: str
    module: object
    cls: type | None
    params: tuple[str, ...]

    def local_roots(self) -> frozenset[str]:
        attrs = instance_attributes(self.cls) if self.cls is not None else frozenset()
        return frozenset(self.params) | attrs


@cache
def src_texts() -> list[Citation]:
    """Every docstring and comment of ``src/replaykit`` with the class
    and the function parameters in scope there."""
    found = []
    for name, module in MODULES.items():
        source = (SRC / f"{name}.py").read_text(encoding="utf-8")
        scopes = []  # (first line, last line, class or None, parameter names)

        def visit(node, cls, params):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                found.append(Citation(doc, module, cls, params))
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    inner = (getattr(module, child.name, None) if cls is None
                             else getattr(cls, child.name, None), ())
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = child.args
                    inner = (cls, tuple(a.arg for a in args.posonlyargs + args.args + args.kwonlyargs))
                else:
                    continue
                scopes.append((child.lineno, child.end_lineno, *inner))
                visit(child, *inner)

        visit(ast.parse(source), None, ())
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                line = tok.start[0]
                inside = [s for s in scopes if s[0] <= line <= s[1]]
                cls, params = (inside[-1][2], inside[-1][3]) if inside else (None, ())
                found.append(Citation(tok.string, module, cls, params))
    return found


def src_unresolved() -> tuple[list[str], int]:
    """Unresolved ``<module>: <name>`` entries, and how many were checked."""
    bad, checked = [], 0
    for c in src_texts():
        where = c.module.__name__.rsplit(".", 1)[-1]
        for target in ROLE.findall(c.text):
            checked += 1
            ok = resolves(target) if "." in target else resolves_in(target, c.module, c.cls)
            if not ok:
                bad.append(f"{where}: role target {target!r}")
        for span in DOUBLE.findall(c.text):
            name = dotted_name(span)
            if name:
                checked += 1
                if not resolves(name, c.local_roots()):
                    bad.append(f"{where}: ``{span}``")
    return bad, checked


@cache
def defined_tests(file: str) -> frozenset[str]:
    tree = ast.parse((ROOT / "tests" / file).read_text(encoding="utf-8"))
    return frozenset(n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))


def missing_tests(text: str) -> list[str]:
    bad = []
    for file, test in TEST_CITATION.findall(text):
        if not (ROOT / "tests" / file).is_file():
            bad.append(f"tests/{file}")
        elif test and test not in defined_tests(file):
            bad.append(f"tests/{file}::{test}")
    return bad


def test_readme_dotted_names_resolve() -> None:
    names = readme_names()
    assert len(names) >= 10, names
    assert [name for name in names if not resolves(name)] == []


def test_src_docstring_and_comment_names_resolve() -> None:
    bad, checked = src_unresolved()
    assert checked >= 20
    assert bad == []


def test_cited_tests_exist() -> None:
    texts = [README.read_text(encoding="utf-8"), *(c.text for c in src_texts())]
    assert [bad for text in texts for bad in missing_tests(text)] == []


def test_the_checks_reject_what_does_not_exist() -> None:
    assert resolves("ReplayBuffer.gather")
    assert not resolves("ReplayBuffer.no_such_method")
    assert resolves("Batch.state_block") and resolves("Experiment.agent.acts")
    assert not resolves("hindsight.Episode")
    assert not resolves("spam.eggs")
    assert dotted_name("ReplayBuffer.append(state,\n action)") == "ReplayBuffer.append"
    assert dotted_name("n <- (1 - theta) * n") is None
    assert missing_tests("tests/test_replay.py::test_newest_rows_are_in_append_order") == []
    assert missing_tests("tests/test_replay.py::test_gone") == ["tests/test_replay.py::test_gone"]
    assert missing_tests("tests/test_gone.py") == ["tests/test_gone.py"]


if __name__ == "__main__":
    print("README:", len(readme_names()), "dotted names")
    bad, checked = src_unresolved()
    print("src:", checked, "names,", len(bad), "unresolved")
    for entry in bad:
        print("  ", entry)
