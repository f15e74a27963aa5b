"""Building and loading ``repro/core/_kernels.c``.

Each test imports ``repro.core`` in fresh interpreters over a copy of the
package that holds no built object, so the first import compiles it.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
IMPORT = [sys.executable, "-c", "import repro.core.clustering, repro.core.transform"]


@pytest.fixture
def package(tmp_path):
    """``(env, core)``: an environment importing a fresh copy of ``repro``,
    and that copy's ``core`` directory."""
    shutil.copytree(SRC / "repro", tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__", "_kernels-*"))
    return {**os.environ, "PYTHONPATH": str(tmp_path)}, tmp_path / "repro" / "core"


def built(core: Path) -> list[Path]:
    return sorted(p for p in core.iterdir() if p.name.startswith("_kernels-"))


def test_missing_gcc_raises_import_error(package, tmp_path):
    env, core = package
    empty = tmp_path / "empty"
    empty.mkdir()
    out = subprocess.run(IMPORT, env={**env, "PATH": str(empty)}, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert "ImportError" in out.stderr and "gcc" in out.stderr
    assert built(core) == []


def test_concurrent_imports_leave_one_object(package):
    env, core = package
    procs = [subprocess.Popen(IMPORT, env=env, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    errs = [p.communicate(timeout=120)[1] for p in procs]
    assert [p.returncode for p in procs] == [0, 0], errs
    objs = built(core)
    assert len(objs) == 1 and objs[0].suffix == ".so"


def test_second_import_does_not_rebuild(package):
    env, core = package
    subprocess.run(IMPORT, env=env, check=True, timeout=120)
    (obj,) = built(core)
    mtime = obj.stat().st_mtime_ns
    subprocess.run(IMPORT, env=env, check=True, timeout=120)
    assert built(core) == [obj] and obj.stat().st_mtime_ns == mtime


def test_flag_edit_builds_a_new_object(package):
    """The object's name covers the gcc command, so editing only a flag
    builds a new object instead of loading the one built without it."""
    env, core = package
    subprocess.run(IMPORT, env=env, check=True, timeout=120)
    (first,) = built(core)
    loader = core / "_kernels.py"
    loader.write_text(loader.read_text().replace('"-O2"', '"-O1"', 1))
    subprocess.run(IMPORT, env=env, check=True, timeout=120)
    objs = built(core)
    assert len(objs) == 2 and first in objs
