"""Build and load ``_kernels.c``, the loops of CLUGP's three passes.

The first import compiles the source with gcc into a shared object next to
it, named by the sha256 of source and gcc flags, so an edit builds a new object
and an unchanged one is never rebuilt.  The object is written under a
temporary name and moved into place with ``os.replace``: processes that
import at the same time (Spark workers, parallel tests) each either load
a complete object or build their own, never a half-written file.

``stream_cluster``, ``play_game`` and ``transform`` validate every
index before calling in; the C loops trust them.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
# -ffp-contract=off: fused multiply-adds (gcc's default on aarch64) would flip the game's ties
FLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]


def _build(source: Path, obj: Path) -> None:
    gcc = shutil.which("gcc")
    if gcc is None:
        raise ImportError(f"repro.core needs gcc on PATH to build {source.name} on first import")
    fd, tmp = tempfile.mkstemp(prefix=obj.name + ".", suffix=".tmp", dir=obj.parent)
    os.close(fd)
    try:
        done = subprocess.run([gcc, *FLAGS, "-o", tmp, str(source)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise ImportError(f"gcc failed to build {source.name}:\n{done.stderr}")
        os.replace(tmp, obj)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> ctypes.CDLL:
    digest = hashlib.sha256(SOURCE.read_bytes() + "\0".join(["gcc", *FLAGS]).encode()).hexdigest()
    obj = SOURCE.with_name(f"_kernels-{digest}.so")
    if not obj.exists():
        _build(SOURCE, obj)
    lib = ctypes.CDLL(str(obj))
    i64 = ctypes.c_int64
    arr = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    farr = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    lib.stream_cluster.restype = i64
    lib.stream_cluster.argtypes = [
        i64, i64, arr, arr, ctypes.c_double, ctypes.c_double, ctypes.c_int32,
        arr, arr, arr, arr, i64, arr, arr, arr, arr, arr, arr,
    ]
    lib.transform.restype = None
    lib.transform.argtypes = [
        i64, arr, arr, arr, arr, arr, arr, arr, arr, ctypes.c_double, arr, arr,
    ]
    lib.best_responses.restype = i64
    lib.best_responses.argtypes = [i64, arr, i64, ctypes.c_double, arr, arr, arr, arr, farr,
                                   arr, farr, arr, arr, arr]
    return lib


lib = _load()


def indices(x, bound: int, what: str) -> np.ndarray:
    """``x`` as a C-contiguous int64 array, checked to lie in ``[0, bound)``."""
    x = np.ascontiguousarray(x, dtype=np.int64)
    if x.size and (x.min() < 0 or x.max() >= bound):
        raise ValueError(f"{what} outside [0, {bound}): {x.min()}..{x.max()}")
    return x
