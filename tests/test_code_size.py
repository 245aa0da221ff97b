"""Code-size gate: ``src/replaykit`` stays within its line ceiling.

A code line is a non-blank line that holds a token other than a
comment and is not part of a module, class or function docstring.
Print the per-module counts with ``python tests/test_code_size.py``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "replaykit"
CEILING = 2_100

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            docstring = node.body[0] if node.body else None
            if (
                isinstance(docstring, ast.Expr)
                and isinstance(docstring.value, ast.Constant)
                and isinstance(docstring.value.value, str)
            ):
                lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def module_counts() -> dict[str, int]:
    return {p.name: code_lines(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def test_code_line_counter_skips_comments_blanks_and_docstrings() -> None:
    source = (
        '"""Module docstring\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        "    return (x +  # trailing comment\n"
        "            1)\n"
        "\n"
        "S = '''a string\n"
        "that is data'''\n"
    )
    assert code_lines(source) == 5


def test_src_stays_within_the_code_line_ceiling() -> None:
    counts = module_counts()
    assert "harness.py" in counts
    assert sum(counts.values()) <= CEILING, counts


if __name__ == "__main__":
    counts = module_counts()
    for name, count in counts.items():
        print(f"{name:<16}{count:>6}")
    print(f"{'total':<16}{sum(counts.values()):>6}  (ceiling {CEILING})")
