"""Partition-quality metrics (paper §II-B) from one per-partition counts relation.

Replication factor RF = (1/|V|)·Σ_v |P(v)| where P(v) is the set of
partitions holding a copy of v (master or mirror), and relative load
balance = k·max|p|/|E|.  Both, like the GAS layout of ``repro.engine.gas``,
are functions of three counts per partition: edges, vertex copies, and
masters (each vertex's min-partition copy).  Spark (``collect_counts``)
and numpy (``partition_counts_local``) build the same ``(3, k)`` array;
``quality_from_counts`` derives the metrics from it.  Tests cross-check
the Spark relation against DuckDB via ``repro.oracle.assert_equivalent``.

The Spark plan takes two exchanges (one on the vertex, one on the
partition) and holds no sort, window or sort-merge join.  Both builders
reject a partition id outside [0, k).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.generators import ASSIGNMENT_SCHEMA, EdgeStream

def assignment_df(spark, stream: EdgeStream, edge_partition: np.ndarray) -> DataFrame:
    """Wrap a kernel result into the canonical assignment relation."""
    pdf = stream.to_pandas()
    pdf["partition"] = edge_partition.astype("int64")
    return spark.createDataFrame(pdf, schema=ASSIGNMENT_SCHEMA)


def partition_counts(assign: DataFrame) -> DataFrame:
    """``(partition, edges, copies, masters)``: one row per used partition.

    A vertex's master is its min-partition copy.  PowerGraph hashes masters
    to machines; the deterministic rule gives the same counts and is
    reproducible.

    Two exchanges, and no sort, window or sort-merge join: per vertex, its
    set of partitions (grouped on ``v``), whose minimum is the master; then
    per partition, one sum over a tagged union of ``(partition, 1, 0, 0)``
    per edge and ``(p, 0, 1, p == master)`` per vertex copy.
    """
    ends = assign.select(F.explode(F.array("src", "dst")).alias("v"), "partition")
    parts = ends.groupBy("v").agg(F.collect_set("partition").alias("ps"))
    copies = parts.select(F.explode("ps").alias("partition"), F.array_min("ps").alias("master")).select(
        "partition",
        F.lit(0).alias("edges"),
        F.lit(1).alias("copies"),
        (F.col("partition") == F.col("master")).cast("int").alias("masters"),
    )
    edges = assign.select("partition", F.lit(1).alias("edges"), F.lit(0).alias("copies"), F.lit(0).alias("masters"))
    return edges.unionByName(copies).groupBy("partition").agg(
        *(F.sum(c).alias(c) for c in ("edges", "copies", "masters"))
    )


def _check_partition_ids(ids: np.ndarray, k: int) -> None:
    """Raise ``ValueError`` naming an id outside [0, k), if there is one."""
    if len(ids):
        lo, hi = int(ids.min()), int(ids.max())
        if lo < 0 or hi >= k:
            raise ValueError(f"partition id {lo if lo < 0 else hi} outside [0, {k})")


def collect_counts(assign: DataFrame, k: int) -> np.ndarray:
    """``partition_counts`` as a ``(3, k)`` int64 array, in one ``collect()``."""
    rows = partition_counts(assign).collect()
    _check_partition_ids(np.array([r["partition"] for r in rows], dtype=np.int64), k)
    counts = np.zeros((3, k), dtype=np.int64)
    for r in rows:
        counts[:, r["partition"]] = r["edges"], r["copies"], r["masters"]
    return counts


def partition_counts_local(
    stream: EdgeStream, edge_partition: np.ndarray, k: int
) -> np.ndarray:
    """Driver-side (numpy) twin of ``collect_counts``: ``(3, k)`` int64.

    Each (v, partition) copy is packed as ``v·k + partition`` over the
    densified ids, so the key cannot overflow whatever the ids are.
    Distinct keys sort by vertex, then partition: a vertex's first copy is
    its master.
    """
    _check_partition_ids(edge_partition, k)
    _, dense = stream.densify()
    v = np.concatenate([dense.src, dense.dst])
    p = np.concatenate([edge_partition, edge_partition]).astype(np.int64)
    vs, ps = np.divmod(np.unique(v * k + p), k)
    is_master = np.diff(vs, prepend=-1) != 0
    return np.stack([
        np.bincount(edge_partition, minlength=k),
        np.bincount(ps, minlength=k),
        np.bincount(ps[is_master], minlength=k),
    ]).astype(np.int64)


def replication_factor(n_replicas: int, n_vertices: int) -> float:
    """Σ_v |P(v)| / |V|; 1.0 for a graph with no vertices."""
    return n_replicas / n_vertices if n_vertices else 1.0


def quality_from_counts(counts: np.ndarray) -> dict:
    """RF, relative balance and totals from a ``(3, k)`` counts array."""
    edges, copies, masters = counts
    k, n_e = len(edges), int(edges.sum())
    n_vertices, n_replicas = int(masters.sum()), int(copies.sum())
    return {
        "replication_factor": replication_factor(n_replicas, n_vertices),
        "relative_balance": k * int(edges.max()) / n_e if n_e else 1.0,
        "n_vertices": n_vertices,
        "n_replicas": n_replicas,
        "n_edges": n_e,
        "n_partitions_used": int((edges > 0).sum()),
    }


def quality(assign: DataFrame, k: int) -> dict:
    """RF, relative balance and totals of a Spark assignment (one collect)."""
    return quality_from_counts(collect_counts(assign, k))


def quality_local(stream: EdgeStream, edge_partition: np.ndarray, k: int) -> dict:
    """Driver-side (numpy) twin of ``quality`` for tight sweep loops."""
    return quality_from_counts(partition_counts_local(stream, edge_partition, k))
