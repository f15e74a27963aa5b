"""Vertex-cut GAS engine substrate (the paper's PowerGraph stand-in).

PowerGraph executes vertex programs Gather-Apply-Scatter over vertex-cut
edge partitions: every partition holds local copies (master or mirror) of
its edges' endpoints; per iteration each mirror sends its partial gather
to the master (1 message) and the master broadcasts the applied value
back (1 message) — so communication per iteration is exactly
``2·Σ_v (|P(v)|−1)`` messages, and computation per node is proportional
to its edge count.  Both are pure functions of the partitioning, which is
how partition quality (RF, balance) becomes system performance (Fig 8).

This module derives those master/mirror tables from an assignment
relation with DataFrame ops; `repro.engine.pagerank` / `cc` run the
actual vertex programs; `repro.engine.costmodel` turns the counters into
simulated wall-clock under a network model (bandwidth + RTT).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.graphs.generators import EdgeStream
from repro.metrics.quality import replica_keys, replicas


@dataclass(frozen=True)
class GraphLayout:
    """Distributed layout of a vertex-cut partitioned graph."""

    n_vertices: int
    n_edges: int
    n_partitions: int
    n_replicas: int          # Σ_v |P(v)|  (masters + mirrors)
    max_part_edges: int      # max_p |p|
    max_part_mirror_msgs: int  # busiest node's sync messages per iteration

    @property
    def n_mirrors(self) -> int:
        return self.n_replicas - self.n_vertices

    @property
    def sync_messages_per_iter(self) -> int:
        """Mirror→master gather + master→mirror apply broadcasts."""
        return 2 * self.n_mirrors

    @property
    def replication_factor(self) -> float:
        return self.n_replicas / self.n_vertices if self.n_vertices else 1.0


def replica_table(assign: DataFrame) -> DataFrame:
    """(v, partition, is_master): every local copy, master = min partition.

    PowerGraph hashes masters to machines; the deterministic min-partition
    rule is equivalent for counting purposes and reproducible.
    """
    w = F.min("partition").over(Window.partitionBy("v"))
    return replicas(assign).withColumn("is_master", F.col("partition") == w)


def layout(assign: DataFrame, k: int) -> GraphLayout:
    """Compute the layout counters the cost model consumes (2 Spark jobs)."""
    rep = replica_table(assign).cache()
    try:
        agg = rep.agg(
            F.count("*").alias("n_replicas"),
            F.countDistinct("v").alias("n_vertices"),
        ).collect()[0]
        per_part = (
            rep.filter(~F.col("is_master"))
            .groupBy("partition")
            .agg(F.count("*").alias("mirrors"))
            .agg(F.max("mirrors").alias("mx"))
            .collect()
        )
        max_mirrors = int(per_part[0]["mx"]) if per_part and per_part[0]["mx"] is not None else 0
        edges = assign.groupBy("partition").agg(F.count("*").alias("n")).agg(
            F.sum("n").alias("tot"), F.max("n").alias("mx")
        ).collect()[0]
    finally:
        rep.unpersist()
    return GraphLayout(
        n_vertices=int(agg["n_vertices"]),
        n_edges=int(edges["tot"]),
        n_partitions=k,
        n_replicas=int(agg["n_replicas"]),
        max_part_edges=int(edges["mx"]),
        # Busiest node sends+receives one message pair per hosted mirror.
        max_part_mirror_msgs=2 * max_mirrors,
    )


def layout_local(stream: EdgeStream, edge_partition: np.ndarray, k: int) -> GraphLayout:
    """Driver-side (numpy) twin of ``layout`` for tight sweep loops.

    Tests assert it agrees with the Spark version; the table harnesses use
    it to avoid one Spark job per sweep point.
    """
    n_vertices, vp = replica_keys(stream, edge_partition, k)  # distinct (v, partition)
    vs, ps = vp // k, vp % k
    # Master = min partition per vertex; vp is sorted so the first copy of
    # each vertex is its master.
    is_first = np.ones(len(vp), dtype=bool)
    is_first[1:] = vs[1:] != vs[:-1]
    mirrors_per_part = np.bincount(ps[~is_first], minlength=k)
    loads = np.bincount(edge_partition, minlength=k)
    return GraphLayout(
        n_vertices=int(n_vertices),
        n_edges=int(loads.sum()),
        n_partitions=k,
        n_replicas=int(len(vp)),
        max_part_edges=int(loads.max()),
        max_part_mirror_msgs=int(2 * mirrors_per_part.max()),
    )
