"""Partition-quality metrics (paper §II-B) from one per-partition counts relation.

Replication factor RF = (1/|V|)·Σ_v |P(v)| where P(v) is the set of
partitions holding a copy of v (master or mirror), and relative load
balance = k·max|p|/|E|.  Both, like the GAS layout of ``repro.engine.gas``,
are functions of three counts per partition: edges, vertex copies, and
masters (each vertex's min-partition copy).  Spark (``collect_counts``)
and numpy (``partition_counts_local``) build the same ``(3, k)`` array;
``quality_from_counts`` derives the metrics from it.  Tests cross-check
the Spark relation against DuckDB via ``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.graphs.generators import EdgeStream

def assignment_df(spark, stream: EdgeStream, edge_partition: np.ndarray) -> DataFrame:
    """Wrap a kernel result into the canonical assignment relation."""
    pdf = stream.to_pandas()
    pdf["partition"] = edge_partition.astype("int64")
    return spark.createDataFrame(pdf, schema="pos long, src long, dst long, partition long")


def replicas(assign: DataFrame) -> DataFrame:
    """The vertex-replica relation: one row per (vertex, partition) copy."""
    return (
        assign.select(F.col("src").alias("v"), "partition")
        .unionAll(assign.select(F.col("dst").alias("v"), "partition"))
        .distinct()
    )


def partition_counts(assign: DataFrame) -> DataFrame:
    """``(partition, edges, copies, masters)``: one row per used partition.

    A vertex's master is its min-partition copy.  PowerGraph hashes masters
    to machines; the deterministic rule gives the same counts and is
    reproducible.
    """
    is_master = F.col("partition") == F.min("partition").over(Window.partitionBy("v"))
    copies = (
        replicas(assign)
        .withColumn("is_master", is_master)
        .groupBy("partition")
        .agg(F.count("*").alias("copies"), F.count(F.when(F.col("is_master"), 1)).alias("masters"))
    )
    edges = assign.groupBy("partition").agg(F.count("*").alias("edges"))
    return edges.join(copies, "partition")


def collect_counts(assign: DataFrame, k: int) -> np.ndarray:
    """``partition_counts`` as a ``(3, k)`` int64 array, in one ``collect()``."""
    counts = np.zeros((3, k), dtype=np.int64)
    for r in partition_counts(assign).collect():
        counts[:, r["partition"]] = r["edges"], r["copies"], r["masters"]
    return counts


def partition_counts_local(
    stream: EdgeStream, edge_partition: np.ndarray, k: int
) -> np.ndarray:
    """Driver-side (numpy) twin of ``collect_counts``: ``(3, k)`` int64.

    Each (v, partition) copy is packed as ``index(v)·k + partition``, where
    ``index(v)`` is v's rank among the distinct ids, so the key cannot
    overflow whatever the ids are.  Distinct keys sort by vertex, then
    partition: a vertex's first copy is its master.
    """
    _, index = np.unique(np.concatenate([stream.src, stream.dst]), return_inverse=True)
    p = np.concatenate([edge_partition, edge_partition]).astype(np.int64)
    vs, ps = np.divmod(np.unique(index.astype(np.int64) * k + p), k)
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
