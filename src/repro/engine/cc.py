"""Connected components as a GAS vertex program (label propagation).

The paper's second representative workload ("pagerank and connected
component", §I/§VI).  Labels propagate the minimum vertex id over
undirected edges until fixpoint, and the number of rounds is returned so
the cost model can charge per-iteration communication.  Tests verify
against a driver-side union-find.

One round is one co-partitioned join, one aggregate and exactly one
exchange.  The undirected edges are checkpointed once, hash-partitioned
on the sending vertex ``v``, as the label state is, so with adaptive
query execution off (``jobs/common.py``) the labels join the edges in
place and only the partial minima, one per (partition, receiving vertex
``u``), are shuffled.  Each vertex also has a self-loop: it puts the
vertex's own label among the values its ``min`` reads, and the self-loop
row's label is the old label, so the same ``groupBy`` yields the change
flag without a second join.

``undirected_edges`` reads the assignment once and takes one exchange.
Convergence is checked after every second round, so one Spark job runs
two rounds; the price is at most one extra round that changes no label.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.engine import release_checkpoints
from repro.graphs.generators import EdgeStream


def undirected_edges(assign: DataFrame) -> DataFrame:
    """``(v, u)`` for both directions of every edge and ``(v, v)`` for every
    vertex, distinct, hash-partitioned on ``v``.

    All four rows of an edge come from one scan of the assignment, and the
    one exchange, on ``v``, also serves the ``distinct``."""
    pairs = [("src", "dst"), ("dst", "src"), ("src", "src"), ("dst", "dst")]
    und = assign.select(F.inline(F.array(*(F.struct(F.col(a).alias("v"), F.col(b).alias("u")) for a, b in pairs))))
    return und.repartition("v").distinct()


def cc_round(edges: DataFrame, labels: DataFrame) -> DataFrame:
    """One round over ``undirected_edges``: ``(v, label, old)`` per vertex.

    ``label`` is the minimum over the vertex and its neighbours; ``old``
    is the vertex's own label, read from its self-loop row.  The join
    hashes the labels and streams the edges, so no round sorts the edges.
    """
    return (
        edges.join(labels.hint("shuffle_hash"), "v")
        .groupBy("u")
        .agg(
            F.min("label").alias("label"),
            F.min(F.when(F.col("v") == F.col("u"), F.col("label"))).alias("old"),
        )
        .select(F.col("u").alias("v"), "label", "old")
    )


def connected_components(assign: DataFrame, *, max_iters: int = 50) -> tuple[DataFrame, int]:
    """Min-label propagation; returns ((v, component), rounds_used).

    ``undirected_edges`` and each round are ``localCheckpoint()``-ed
    lazily: the edges become a leaf of every round's plan, and each round
    cuts the plan (round i plans what round 1 does).  The changes are
    counted after every second round (and after round ``max_iters``):
    the count materialises both rounds (the first count also the edges),
    so two rounds are one Spark job.  No change in the second round means
    the first reached the fixpoint, so the result is the same as a check
    after every round, found at most one round later.  Once the last
    round is materialised, every other checkpoint is released: only the
    returned labels stay persisted.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    edges = undirected_edges(assign).localCheckpoint(eager=False)
    labels = edges.where(F.col("v") == F.col("u")).select("v", F.col("v").alias("label"))
    checkpoints, rounds = [edges], 0
    while rounds < max_iters:
        for _ in range(min(2, max_iters - rounds)):
            step = cc_round(edges, labels).localCheckpoint(eager=False)
            checkpoints.append(step)
            labels = step.select("v", "label")
            rounds += 1
        if step.where(F.col("label") < F.col("old")).count() == 0:
            break
    release_checkpoints(checkpoints[:-1])
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
