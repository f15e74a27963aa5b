"""The program surface that the benchmark harness (``perfbench/``) calls.

The harness imports the repro modules and calls them with fixed argument
shapes; a rename or a changed signature breaks the benchmark before it
measures anything.  The driver path is run end to end at a tiny scale, and
each Spark-side call is bound against the arguments the harness passes.
"""
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """``(workloads, spans)``, imported the way ``perfbench/run.py`` does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads"), importlib.import_module("spans")


def test_driver_path_runs(perfbench):
    workloads, spans = perfbench
    k = 8
    stream = workloads.dataset("it", sf=0.0005)
    tr = spans.NullTracer()
    passes = workloads.compose(stream, k, tr)
    counts = workloads.pass_counts([passes], k)
    assert counts["clustering.n_clusters"] == passes.clustering.n_clusters
    rep = workloads.driver_rep(stream, k, tr)
    assert np.array_equal(passes.edge_partition, rep["ep"])


def test_spark_side_calls_bind(perfbench):
    workloads, _ = perfbench
    edges = assign = stream = lay = object()
    calls = [
        (workloads.clugp_partition_spark, (edges, 32), {"n_nodes": 4, "tau": 1.0}),
        (workloads.pagerank, (assign,), {"iterations": 10}),
        (workloads.connected_components, (assign,), {}),
        (workloads.quality, (assign, 32), {}),
        (workloads.layout, (assign, 32), {}),
        (workloads.simulate, (lay,), {"iterations": 10, "model": workloads.MODEL}),
        (workloads.pagerank_reference, (stream,), {"iterations": 10}),
        (workloads.cc_reference, (stream,), {}),
        (workloads.dataset, ("uk",), {"sf": 0.01, "seed_offset": 0}),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)
