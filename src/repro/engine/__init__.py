"""GAS engine substrate: layout accounting, PageRank, CC and the cost model."""
from __future__ import annotations

from pyspark.sql import DataFrame


def release_checkpoints(checkpoints: list[DataFrame]) -> None:
    """Unpersist the RDD behind each ``localCheckpoint()``-ed DataFrame.

    A local checkpoint keeps its rows persisted until its RDD is
    unpersisted or garbage-collected on the JVM side.  Once a superstep is
    materialised, its own checkpoint is all it reads, so the edges and the
    supersteps before it are released by handle, as GraphX's Pregel
    unpersists the graph each step replaces.
    """
    for df in checkpoints:
        df._jdf.logicalPlan().rdd().unpersist(False)
