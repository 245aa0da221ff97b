"""The BLAS build numpy runs on, and the kernel it loaded on this CPU.

OpenBLAS built with ``DYNAMIC_ARCH`` picks a kernel for the CPU when it
loads, and the kernels add up inner products in different orders, so
the bits of a matrix product depend on the kernel as well as on the
build. Tests that pin bits quote :func:`blas_kernel` when they fail.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

# The scipy-openblas entry points that name the loaded kernel, for the
# 64-bit and 32-bit integer builds.
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename")


@functools.cache
def blas_kernel() -> str:
    """``"<numpy version>, <BLAS name> <BLAS version>, core <core>"``,
    where each part that cannot be read is ``"unknown"``."""
    return f"numpy {np.__version__}, {_blas_build()}, core {_loaded_core()}"


def _blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _loaded_core() -> str:
    """The kernel scipy-openblas chose at load time. Opening the library
    numpy ships gives back the handle numpy already holds, so this reads
    the core numpy uses."""
    package = Path(np.__file__).parent
    libraries = sorted(package.parent.glob("numpy.libs/*openblas*"))
    libraries += sorted(package.glob(".dylibs/*openblas*"))
    for path in libraries:
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in _CORENAME_SYMBOLS:
            corename = getattr(library, symbol, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode("ascii", "replace")
    return "unknown"


if __name__ == "__main__":
    print(blas_kernel())
