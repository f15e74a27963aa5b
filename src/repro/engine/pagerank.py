"""PageRank as a GAS vertex program over the DataFrame engine.

The rank values are computed exactly (they do not depend on the
partitioning — PowerGraph's GAS is deterministic up to float order), while
the per-iteration computation/communication *work* is a function of the
layout and is accounted by ``repro.engine.gas`` + ``costmodel``.  Tests
verify the ranks against a dense numpy power iteration via the DuckDB
oracle pattern.

Formulation: standard damped PageRank without dangling-mass
redistribution, ``r' = (1−d)/N + d·Σ_{(u,v)∈E} r(u)/outdeg(u)`` — matching
PowerGraph's example program.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.generators import EdgeStream


def _check_iterations(iterations: int) -> None:
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")


def pagerank(assign: DataFrame, *, iterations: int = 10, damping: float = 0.85) -> DataFrame:
    """Run PageRank over the edge relation; returns (v, rank).

    The weighted edges ``(src, dst, outdeg)`` and the vertex set are
    cached once.  Each iteration is one GAS superstep: join the weighted
    edges with ``ranks`` on ``src`` and sum ``rank / outdeg`` per ``dst``
    (gather), then left-join the sums onto every vertex and damp them
    (apply).  Broadcast joins are off, so both joins are sort-merge joins.
    The cached edges are already hash-partitioned on ``src`` (by the
    ``outdeg`` join) and the vertices on ``v`` (by ``distinct``), so a
    superstep shuffles only two vertex-sized relations: the ranks, on
    ``v``, and each partition's partial sums, on ``dst``.  Each superstep
    ends in an eager ``localCheckpoint()``, which cuts the plan at the new
    ranks: superstep i then costs what superstep 1 does, instead of
    replanning and re-running the i-1 before it.
    """
    _check_iterations(iterations)
    edges = assign.select("src", "dst")
    outdeg = edges.groupBy("src").agg(F.count("*").alias("outdeg"))
    weighted = edges.join(outdeg, "src").cache()
    verts = (
        weighted.select(F.col("src").alias("v"))
        .unionAll(weighted.select(F.col("dst").alias("v")))
        .distinct()
        .cache()
    )
    # An empty graph gives an empty result whatever n is.
    n = max(verts.count(), 1)
    ranks = verts.withColumn("rank", F.lit(1.0 / n))

    for _ in range(iterations):
        gathered = (
            weighted.join(ranks, weighted.src == ranks.v)
            .groupBy(F.col("dst").alias("v"))
            .agg(F.sum(F.col("rank") / F.col("outdeg")).alias("gathered"))
        )
        ranks = (
            verts.join(gathered, "v", "left")
            .select(
                "v",
                (
                    F.lit((1.0 - damping) / n)
                    + F.lit(damping) * F.coalesce(F.col("gathered"), F.lit(0.0))
                ).alias("rank"),
            )
            .localCheckpoint()
        )
    weighted.unpersist()
    verts.unpersist()
    return ranks


def pagerank_reference(stream: EdgeStream, *, iterations: int = 10, damping: float = 0.85) -> np.ndarray:
    """Dense numpy power iteration with identical semantics (the oracle)."""
    _check_iterations(iterations)
    ids, dense = stream.densify()
    src, dst = dense.src, dense.dst
    n = len(ids)
    if n == 0:
        return np.empty((0, 2))
    outdeg = np.bincount(src, minlength=n).astype(np.float64)
    r = np.full(n, 1.0 / n)
    for _ in range(iterations):
        contrib = np.zeros(n)
        np.add.at(contrib, dst, r[src] / outdeg[src])
        r = (1.0 - damping) / n + damping * contrib
    return np.column_stack([ids, r])
