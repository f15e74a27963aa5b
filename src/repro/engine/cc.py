"""Connected components as a GAS vertex program (label propagation).

The paper's second representative workload ("pagerank and connected
component", §I/§VI).  Labels propagate the minimum vertex id over
undirected edges until fixpoint, and the number of rounds is returned so
the cost model can charge per-iteration communication.  Tests verify
against a driver-side union-find.

The undirected edges are cached once, hash-partitioned on ``dst``, so the
per-round join with the labels never reshuffles them.  A round shuffles
only vertex-sized data: the labels, to join the edges on ``dst`` and the
neighbour minima on ``v``, and the per-partition partial minima, to group
them on ``src``.  The new label and its ``changed`` flag come from one
projection, which is ``localCheckpoint()``-ed: the checkpoint cuts the
plan, so round i costs the same as round 1, and the change count reads
the checkpointed rows instead of joining the old labels again.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.generators import EdgeStream


def connected_components(assign: DataFrame, *, max_iters: int = 50) -> tuple[DataFrame, int]:
    """Min-label propagation; returns ((v, component), rounds_used)."""
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    und = (
        assign.select("src", "dst")
        .unionAll(assign.select(F.col("dst").alias("src"), F.col("src").alias("dst")))
        .distinct()
        .repartition("dst")
        .cache()
    )
    labels = (
        und.select(F.col("src").alias("v")).distinct().withColumn("label", F.col("v"))
    )
    rounds = 0
    for _ in range(max_iters):
        rounds += 1
        nbr_min = (
            und.join(labels, und.dst == labels.v)
            .groupBy("src")
            .agg(F.min("label").alias("nbr"))
        )
        step = (
            labels.join(nbr_min, labels.v == nbr_min.src, "left")
            .select(
                "v",
                F.least(F.col("label"), F.coalesce("nbr", "label")).alias("label"),
                (F.coalesce("nbr", "label") < F.col("label")).alias("changed"),
            )
            .localCheckpoint()
        )
        labels = step.select("v", "label")
        if step.filter("changed").count() == 0:
            break
    und.unpersist()
    return labels.select("v", F.col("label").alias("component")), rounds


def cc_reference(stream: EdgeStream) -> np.ndarray:
    """Union-find oracle: (v, component) with component = min id in set."""
    ids, dense = stream.densify()
    parent = np.arange(len(ids))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(dense.src.tolist(), dense.dst.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    roots = np.array([find(i) for i in range(len(ids))], dtype=np.int64)
    # Canonical component id = min original vertex id in the set.
    comp = ids[roots]
    return np.column_stack([ids, comp])
