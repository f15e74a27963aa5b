"""Vertex-cut GAS engine substrate (the paper's PowerGraph stand-in).

PowerGraph executes vertex programs Gather-Apply-Scatter over vertex-cut
edge partitions: every partition holds local copies (master or mirror) of
its edges' endpoints; per iteration each mirror sends its partial gather
to the master (1 message) and the master broadcasts the applied value
back (1 message) — so communication per iteration is exactly
``2·Σ_v (|P(v)|−1)`` messages, and computation per node is proportional
to its edge count.  Both are pure functions of the partitioning, which is
how partition quality (RF, balance) becomes system performance (Fig 8).

``GraphLayout.from_counts`` derives those counters from the per-partition
``(edges, copies, masters)`` relation of ``repro.metrics.quality``, the
same one the quality metrics come from; `repro.engine.pagerank` / `cc`
run the actual vertex programs; `repro.engine.costmodel` turns the
counters into simulated wall-clock under a network model (bandwidth +
RTT).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame

from repro.graphs.generators import EdgeStream
from repro.metrics.quality import collect_counts, partition_counts_local, replication_factor


@dataclass(frozen=True)
class GraphLayout:
    """Distributed layout of a vertex-cut partitioned graph."""

    n_vertices: int
    n_edges: int
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
        return replication_factor(self.n_replicas, self.n_vertices)

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "GraphLayout":
        """Layout of a ``(3, k)`` ``(edges, copies, masters)`` counts array."""
        edges, copies, masters = counts
        return cls(
            n_vertices=int(masters.sum()),
            n_edges=int(edges.sum()),
            n_replicas=int(copies.sum()),
            max_part_edges=int(edges.max()),
            # Busiest node sends+receives one message pair per hosted mirror.
            max_part_mirror_msgs=2 * int((copies - masters).max()),
        )


def layout(assign: DataFrame, k: int) -> GraphLayout:
    """The layout counters the cost model consumes (one collect)."""
    return GraphLayout.from_counts(collect_counts(assign, k))


def layout_local(stream: EdgeStream, edge_partition: np.ndarray, k: int) -> GraphLayout:
    """Driver-side (numpy) twin of ``layout`` for tight sweep loops."""
    return GraphLayout.from_counts(partition_counts_local(stream, edge_partition, k))
