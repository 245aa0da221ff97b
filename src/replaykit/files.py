"""Atomic text output for run artifacts, written in bounded pieces.

A reader of ``run.csv``, ``manifest.txt``, ``checkpoint.txt`` or a
sweep's ``summary.csv`` sees either the previous complete file or the
new complete file, never a partial write: the text goes to a temp file
in the same directory, which is then moved over the target with
``os.replace`` (atomic on one filesystem). Writers hand over the text
as an iterable of pieces (a line, or part of a long checkpoint row)
made as the file is written, so no copy of the whole text is ever held.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterable


def write_atomic(path, pieces: Iterable[str], encoding: str) -> None:
    """Replace ``path`` with the concatenation of ``pieces`` in one step.

    When writing fails (an unencodable character, a full disk, a
    directory at ``path``, or an exception raised by ``pieces`` itself),
    the temp file is removed and whatever was at ``path`` before is left
    as it was.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    # Named after the process, not made by mkstemp, so the file gets the
    # permissions a plain open() would give it under the caller's umask.
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding=encoding, newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
