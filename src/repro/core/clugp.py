"""The CLUGP pipeline: three restreaming passes over one substream.

``clugp_partition`` wires the three passes over one in-memory substream —
this is what each of the paper's "distributed nodes" executes locally.  It
is registered as ``clugp``, and its Fig-9 ablations as ``clugp_s`` and
``clugp_g``.  The distributed-dataflow version (§III-C's parallel
mechanism) is ``partition_spark(edges, "clugp", k, n_nodes=...)``: the edge
stream is range-split by stream position into ``n_nodes`` substreams, each
Spark task runs this kernel on its substream, and the per-node partition
ids (all in [0,k)) combine into the global partitioning — exactly the
paper's "final graph partitioning result is obtained by combining the
partial partitioning results of distributed nodes".
"""
from __future__ import annotations

import time
from functools import partial
from typing import TYPE_CHECKING

from repro.core.clustering import cluster_graph, stream_cluster
from repro.core.game import greedy_assign, play_game
from repro.core.transform import transform
from repro.graphs.generators import EdgeStream
from repro.partitioners.base import PartitionResult, partition_spark, register

if TYPE_CHECKING:
    from pyspark.sql import DataFrame


@register("clugp")
def clugp_partition(
    stream: EdgeStream,
    k: int,
    *,
    tau: float = 1.0,
    lam="max",
    batch_size: int = 6400,
    seed: int = 0,
    splitting: bool = True,
    game: bool = True,
) -> PartitionResult:
    """Run the three passes over one substream.

    Defaults follow §VI-A: ``V_max = |E|/k``, τ = 1.0, batch 6400, λ at its
    Theorem-5 maximum.  ``splitting=False`` is the CLUGP-S ablation (pass 1
    degenerates to Holl); ``game=False`` is CLUGP-G (greedy size-balancing
    instead of the Nash game).  The passes run on the densified stream, so
    their O(2|V|) state counts the vertices seen, whatever the ids.
    """
    t0 = time.perf_counter()  # densifying is pass 1's ingress
    _, stream = stream.densify()
    clus = stream_cluster(stream, v_max=max(1.0, stream.n_edges / k), splitting=splitting)
    t1 = time.perf_counter()
    sizes, adj = cluster_graph(clus)
    if game:
        g = play_game(sizes, adj, k, lam=lam, batch_size=batch_size, seed=seed)
    else:
        g = greedy_assign(sizes, k)
    t2 = time.perf_counter()
    tr = transform(stream, clus, g.assignment, k, tau=tau)
    t3 = time.perf_counter()

    return PartitionResult(
        tr.edge_partition,
        # O(2|V|) vertex state + O(m) cluster/game tables (§VI "Space").
        space_bytes=clus.space_bytes() + int(sizes.nbytes + g.assignment.nbytes),
        extra={
            "n_clusters": clus.n_clusters,
            "clustering_rf": clus.clustering_rf(),
            "game_rounds": g.rounds,
            "phase_seconds": {"clustering": t1 - t0, "game": t2 - t1, "transform": t3 - t2},
            "batch_times": g.batch_times,
            # Passes 1 and 3 are O(1) per edge; the game scores m·k per sweep
            # in the paper's model, and ``candidate_scores`` partitions in fact.
            "score_ops": g.score_ops + 2 * stream.n_edges,
            "candidate_scores": g.candidates_scored,
        },
    )


# The Fig-9 ablations: CLUGP-S clusters with Holl (no splitting operation),
# CLUGP-G assigns clusters by greedy size-balancing instead of the game.
register("clugp_s")(partial(clugp_partition.__wrapped__, splitting=False))
register("clugp_g")(partial(clugp_partition.__wrapped__, game=False))


def clugp_partition_spark(edges: DataFrame, k: int, *, n_nodes: int = 4, **kwargs) -> DataFrame:
    """Distributed CLUGP: ``partition_spark(edges, "clugp", k, n_nodes=n_nodes)``."""
    return partition_spark(edges, "clugp", k, n_nodes=n_nodes, **kwargs)
