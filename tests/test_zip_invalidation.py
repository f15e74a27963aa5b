"""``stat_gated_zip_invalidation``: PySpark's worker calls
``importlib.invalidate_caches()`` before every task, and the Spark lift
installs this shim so that the call no longer re-reads each zip on the path.

Each check runs in a fresh interpreter, so that the shim, once installed,
stays out of this test session, and its imports come from a zip that the
session has never seen.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Builds ``pkg`` (with subpackage ``pkg.sub``) in the zip ``ZIP``, imports
# both from it and defines ``reads()``: the number of ``_read_directory``
# calls one ``importlib.invalidate_caches()`` makes.
SETUP = """
import importlib, json, sys, zipfile, zipimport
from repro.partitioners.base import stat_gated_zip_invalidation

def build(modules):
    with zipfile.ZipFile(ZIP, "w") as z:
        z.writestr("pkg/__init__.py", "")
        z.writestr("pkg/sub/__init__.py", "")
        for m in modules:
            z.writestr(f"pkg/sub/{m}.py", f"NAME = {m!r}")

build(["a"])
sys.path.insert(0, ZIP)
import pkg.sub.a

calls = []
read_directory = zipimport._read_directory
def counted(archive):
    calls.append(archive)
    return read_directory(archive)
zipimport._read_directory = counted

def reads():
    calls.clear()
    importlib.invalidate_caches()
    assert set(calls) <= {ZIP}, calls
    return len(calls)

importers = sum(isinstance(f, zipimport.zipimporter) and f.archive == ZIP
                for f in sys.path_importer_cache.values())
"""


def run(tmp_path: Path, code: str) -> dict:
    """Run ``SETUP`` and ``code`` in a new interpreter; ``code`` prints one JSON line."""
    prelude = f"ZIP = {str(tmp_path / 'mods.zip')!r}\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", prelude + SETUP + code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="3.13's invalidate_caches reads no zip directory")
def test_unchanged_zip_is_not_reread_and_a_rewritten_one_is(tmp_path):
    got = run(tmp_path, """
before = reads()
stat_gated_zip_invalidation()
gated = zipimport.zipimporter.invalidate_caches
stat_gated_zip_invalidation()
idempotent = zipimport.zipimporter.invalidate_caches is gated
unchanged = [reads(), reads()]
build(["a", "b"])
rewritten = reads()
import pkg.sub.b
print(json.dumps(dict(importers=importers, before=before, unchanged=unchanged,
                      rewritten=rewritten, b=pkg.sub.b.NAME, after=reads(),
                      idempotent=idempotent)))
""")
    # Without the shim, one re-read per importer of the zip (its root,
    # ``pkg`` and ``pkg.sub``); with it, none until the zip changes, then
    # one that all importers share.
    assert got["importers"] >= 3
    assert got["before"] == got["importers"]
    assert got["unchanged"] == [0, 0]
    assert got["rewritten"] == 1
    assert got["b"] == "b"
    assert got["after"] == 0
    assert got["idempotent"]


def test_python_3_13_method_left_untouched(tmp_path):
    got = run(tmp_path, """
original = zipimport.zipimporter.invalidate_caches
if sys.version_info < (3, 13):
    sys.version_info = (3, 13, 0, "final", 0)
stat_gated_zip_invalidation()
print(json.dumps(dict(same=zipimport.zipimporter.invalidate_caches is original)))
""")
    assert got["same"]
