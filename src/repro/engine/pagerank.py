"""PageRank as a GAS vertex program over the DataFrame engine.

The rank values are computed exactly (they do not depend on the
partitioning — PowerGraph's GAS is deterministic up to float order), while
the per-iteration computation/communication *work* is a function of the
layout and is accounted by ``repro.engine.gas`` + ``costmodel``.  Tests
verify the ranks against a dense numpy power iteration via the DuckDB
oracle pattern.

Formulation: standard damped PageRank without dangling-mass
redistribution, ``r' = (1−d)/N + d·Σ_{(u,v)∈E} r(u)/outdeg(u)`` — matching
PowerGraph's example program, with its d = 0.85 as ``DAMPING``.

One superstep is one co-partitioned join, one aggregate and exactly one
exchange.  The edge relation, checkpointed once, carries everything a
superstep reads, the out-degree weights and a zero-weight self-loop per
vertex, and it is hash-partitioned on the source ``v``, as the rank state
is.  With adaptive query execution off (``jobs/common.py``) a checkpoint
keeps that partitioning, so the ranks join the edges in place and only
the partial sums, one per (partition, ``dst``), are shuffled.  Building
the edge relation takes one more exchange, on ``v``.
"""
from __future__ import annotations

from collections.abc import Callable

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.engine import release_checkpoints
from repro.graphs.generators import EdgeStream

DAMPING = 0.85  # d of every PageRank here, PowerGraph's value


def _check_iterations(iterations: int) -> None:
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")


def weighted_edges(assign: DataFrame) -> DataFrame:
    """The relation one superstep reads: ``(v, dst, w)``, hash-partitioned on ``v``.

    One row ``(src, dst, 1/outdeg(src))`` per edge, plus one ``(v, v, 0.0)``
    row per vertex.  The zero-weight self-loops add nothing to any sum, but
    they make every vertex a ``dst``: the gather's ``groupBy(dst)`` then
    yields a rank for every vertex, including those without in-edges,
    with no join against the vertex set.  They are also the vertex set
    itself, the rows with ``w == 0``.

    One exchange, no join: every endpoint is grouped on ``v`` into its
    out-list (a destination-only vertex gets an empty one), and
    ``posexplode`` of ``[v] + out-list`` yields the self-loop at position 0
    and one weighted row per out-edge.  The grouping leaves the rows
    hash-partitioned on ``v``, which is what the superstep join needs.
    """
    out = assign.select(F.col("src").alias("v"), "dst").unionByName(
        assign.select(F.col("dst").alias("v"), F.lit(None).cast("long").alias("dst"))
    )
    # collect_list skips the nulls: each vertex's out-list, one entry per
    # edge, empty for a vertex with in-edges only.
    lists = out.groupBy("v").agg(F.collect_list("dst").alias("outs"))
    pos_dst = lists.select("v", F.size("outs").alias("outdeg"), F.posexplode(F.concat(F.array("v"), "outs")))
    return pos_dst.select(
        "v",
        F.col("col").alias("dst"),
        F.when(F.col("pos") == 0, F.lit(0.0)).otherwise(1.0 / F.col("outdeg")).alias("w"),
    )


def superstep(n: int, damping: float) -> Callable[[DataFrame, DataFrame], DataFrame]:
    """One GAS superstep, ``step(edges, ranks) -> ranks'``, over ``weighted_edges``.

    Gather joins the edges with ``ranks`` on ``v`` and sums ``rank · w`` per
    ``dst``; apply damps the sum.  The edges and the ranks are both
    hash-partitioned on ``v`` (the ranks come out of the previous
    superstep's ``groupBy(dst)``), so with adaptive execution off the join
    needs no exchange, and the one exchange of a superstep is the partial
    sums' on ``dst``: vertex-sized data.  The join hashes the ranks and
    streams the edges, so no superstep sorts the edges.  The column
    expressions are built once per PageRank, not once per superstep: each
    one is a round trip to the JVM.
    """
    gather = F.sum(F.col("rank") * F.col("w")).alias("gathered")
    apply = [
        F.col("dst").alias("v"),
        (F.lit((1.0 - damping) / n) + F.lit(damping) * F.col("gathered")).alias("rank"),
    ]

    def step(edges: DataFrame, ranks: DataFrame) -> DataFrame:
        return edges.join(ranks.hint("shuffle_hash"), "v").groupBy("dst").agg(gather).select(*apply)

    return step


def pagerank(assign: DataFrame, *, iterations: int = 10) -> DataFrame:
    """Run PageRank over the edge relation; returns (v, rank).

    ``weighted_edges`` is ``localCheckpoint()``-ed once, which makes it a
    leaf of every superstep's plan, so planning a superstep never walks
    the plan that built the edges; counting its vertices for ``N``
    materialises it.  Each superstep is checkpointed lazily, which cuts
    the plan at the new ranks (superstep i plans what superstep 1 does)
    without running a job; only the last one is checkpointed eagerly, so
    all the supersteps run inside one Spark job.  Then every checkpoint
    but the one the result reads is released: only the returned ranks
    stay persisted.
    """
    _check_iterations(iterations)
    edges = weighted_edges(assign).localCheckpoint(eager=False)
    verts = edges.where(F.col("w") == 0.0)
    # An empty graph gives an empty result whatever n is.
    n = max(verts.count(), 1)
    ranks = verts.select("v", F.lit(1.0 / n).alias("rank"))
    step = superstep(n, DAMPING)
    checkpoints = [edges]
    for i in range(iterations):
        ranks = step(edges, ranks).localCheckpoint(eager=i == iterations - 1)
        checkpoints.append(ranks)
    release_checkpoints(checkpoints[:-1])
    return ranks


def pagerank_reference(stream: EdgeStream, *, iterations: int = 10) -> np.ndarray:
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
        r = (1.0 - DAMPING) / n + DAMPING * contrib
    return np.column_stack([ids, r])
