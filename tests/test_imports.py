"""Import layers: the kernels import numpy only, the Spark layer adds
pyspark, and pandas is imported only where a pandas object is made.

Each check runs in a fresh interpreter, so that what this test session has
already imported (pytest, the Spark fixture) cannot hide a module-level
import of a heavy library.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

KERNELS = "import repro.partitioners, repro.core.clugp, repro.graphs.stats"
# The numpy twins and the cost model are run, not only imported: a deferred
# import inside a function they call would load its library here.
TWINS = """
from repro.core.clugp import clugp_partition
from repro.engine.costmodel import simulate
from repro.engine.gas import layout_local
from repro.graphs.generators import dataset
from repro.metrics.quality import partition_counts_local, quality_local
from repro.partitioners import get_partitioner
s = dataset("uk", sf=0.0005)
ep = clugp_partition(s, 4).edge_partition
for name in ("hashing", "dbh", "greedy", "hdrf", "mint"):
    get_partitioner(name)(s, 4)
quality_local(s, ep, 4)
partition_counts_local(s, ep, 4)
simulate(layout_local(s, ep, 4), iterations=2)
"""
HEAVY = ("pandas", "pyspark", "pyarrow", "duckdb")


def loaded_after(code: str) -> list[str]:
    """The modules of ``HEAVY`` that a new interpreter has loaded after ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def test_kernel_layer_imports_numpy_only():
    assert loaded_after(KERNELS) == []


def test_numpy_twins_and_cost_model_run_without_pandas():
    # The Spark modules import pyspark at module level; that is allowed.
    assert set(loaded_after(KERNELS + "\n" + TWINS)) - {"pyspark"} == set()

