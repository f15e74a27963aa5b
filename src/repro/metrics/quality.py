"""Partition-quality metrics (paper §II-B), computed with Spark SQL.

Replication factor RF = (1/|V|)·Σ_v |P(v)| where P(v) is the set of
partitions holding a copy of v (master or mirror), and relative load
balance = k·max|p|/|E|.  Both are pure functions of the
``(pos,src,dst,partition)`` assignment relation, so tests cross-check the
Spark aggregations against DuckDB via ``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.generators import EdgeStream


def assignment_df(spark, stream: EdgeStream, edge_partition: np.ndarray) -> DataFrame:
    """Wrap a kernel result into the canonical assignment relation."""
    pdf = stream.to_pandas()
    pdf["partition"] = edge_partition.astype("int64")
    return spark.createDataFrame(pdf)


def replicas(assign: DataFrame) -> DataFrame:
    """The vertex-replica relation: one row per (vertex, partition) copy."""
    return (
        assign.select(F.col("src").alias("v"), "partition")
        .unionAll(assign.select(F.col("dst").alias("v"), "partition"))
        .distinct()
    )


def replication_factor_df(assign: DataFrame) -> DataFrame:
    """Single-row DataFrame with the RF (kept as a DF for oracle checks)."""
    rep = replicas(assign)
    return rep.agg(
        (F.count("*") / F.countDistinct("v")).alias("replication_factor")
    )


def quality(assign: DataFrame, k: int) -> dict:
    """RF, relative balance, counts — one pass of Spark aggregates."""
    rep = replicas(assign).agg(
        F.count("*").alias("n_replicas"), F.countDistinct("v").alias("n_vertices")
    ).collect()[0]
    loads = (
        assign.groupBy("partition").agg(F.count("*").alias("sz")).collect()
    )
    sizes = {int(r["partition"]): int(r["sz"]) for r in loads}
    n_e = sum(sizes.values())
    max_sz = max(sizes.values()) if sizes else 0
    return {
        "replication_factor": rep["n_replicas"] / rep["n_vertices"],
        "relative_balance": k * max_sz / n_e if n_e else 1.0,
        "n_vertices": int(rep["n_vertices"]),
        "n_replicas": int(rep["n_replicas"]),
        "n_edges": n_e,
        "n_partitions_used": len(sizes),
    }


def replica_keys(
    stream: EdgeStream, edge_partition: np.ndarray, k: int
) -> tuple[int, np.ndarray]:
    """Numpy form of ``replicas``: ``(n_vertices, sorted distinct keys)``.

    Each (v, partition) copy is packed as ``index(v)·k + partition``, where
    ``index(v)`` is v's rank among the distinct ids, so the key cannot
    overflow whatever the ids are.  Sorting by key sorts by vertex, then
    partition.
    """
    v = np.concatenate([stream.src, stream.dst])
    p = np.concatenate([edge_partition, edge_partition]).astype(np.int64)
    ids, index = np.unique(v, return_inverse=True)
    return len(ids), np.unique(index.astype(np.int64) * k + p)


def quality_local(stream: EdgeStream, edge_partition: np.ndarray, k: int) -> dict:
    """Driver-side (numpy) version of ``quality`` for tight sweep loops.

    Equivalence with the Spark version is asserted in the test suite; the
    sweeps (dozens of partitioner runs per table) use this to avoid paying
    a Spark job per point.
    """
    n_vertices, keys = replica_keys(stream, edge_partition, k)
    n_replicas = len(keys)
    loads = np.bincount(edge_partition, minlength=k)
    n_e = int(loads.sum())
    return {
        "replication_factor": n_replicas / n_vertices,
        "relative_balance": k * int(loads.max()) / n_e if n_e else 1.0,
        "n_vertices": n_vertices,
        "n_replicas": int(n_replicas),
        "n_edges": n_e,
        "n_partitions_used": int((loads > 0).sum()),
    }
