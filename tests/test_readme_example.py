"""The README's Library example runs as written.

The one fenced ``python`` block of README.md trains CartPole DQN with
combined replay until it solves and asserts that the epsilon clock is
the act count. Running it here keeps the example from going stale.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys) -> None:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip() == "150"
