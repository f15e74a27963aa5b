"""The CLUGP pipeline: three restreaming passes, sequential and on Spark.

``clugp_partition`` wires the three passes over one in-memory substream —
this is what each of the paper's "distributed nodes" executes locally.
``clugp_partition_spark`` is the distributed-dataflow version (§III-C's
parallel mechanism): the edge stream is range-split by stream position
into ``n_nodes`` substreams, each Spark task runs the full three-pass
kernel on its substream via ``mapInPandas``, and the per-node partition
ids (all in [0,k)) combine into the global partitioning — exactly the
paper's "final graph partitioning result is obtained by combining the
partial partitioning results of distributed nodes".
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.clustering import cluster_graph, stream_cluster
from repro.core.game import greedy_assign, play_game
from repro.core.transform import transform
from repro.graphs.generators import EdgeStream


@dataclass
class CLUGPResult:
    """Edge→partition assignment plus phase telemetry for the experiments."""

    edge_partition: np.ndarray
    k: int
    n_clusters: int = 0
    clustering_rf: float = 1.0
    game_rounds: int = 0
    phase_seconds: dict = field(default_factory=dict)
    space_bytes: int = 0
    batch_times: list[float] = field(default_factory=list)
    score_ops: int = 0

    def total_seconds(self) -> float:
        return float(sum(self.phase_seconds.values()))


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
) -> CLUGPResult:
    """Run the three passes over one substream.

    Defaults follow §VI-A: ``V_max = |E|/k``, τ = 1.0, batch 6400, λ at its
    Theorem-5 maximum.  ``splitting=False`` is the CLUGP-S ablation (pass 1
    degenerates to Holl); ``game=False`` is CLUGP-G (greedy size-balancing
    instead of the Nash game).
    """
    if k < 1:
        raise ValueError(f"k must be ≥ 1, got {k}")

    t0 = time.perf_counter()
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

    return CLUGPResult(
        edge_partition=tr.edge_partition,
        k=k,
        n_clusters=clus.n_clusters,
        clustering_rf=clus.clustering_rf(),
        game_rounds=g.rounds,
        phase_seconds={
            "clustering": t1 - t0,
            "game": t2 - t1,
            "transform": t3 - t2,
        },
        # O(2|V|) vertex state + O(m) cluster/game tables (§VI "Space").
        space_bytes=clus.space_bytes() + int(sizes.nbytes + g.assignment.nbytes),
        batch_times=g.batch_times,
        score_ops=g.score_ops,
    )


def clugp_partition_spark(
    edges: DataFrame,
    k: int,
    *,
    n_nodes: int = 4,
    tau: float = 1.0,
    lam="max",
    batch_size: int = 6400,
    seed: int = 0,
    splitting: bool = True,
    game: bool = True,
) -> DataFrame:
    """Distributed CLUGP: ``(pos,src,dst) → (pos,src,dst,partition)``.

    Each of the ``n_nodes`` range-partitions of the stream (contiguous in
    stream position, preserving BFS locality) is one "distributed node"
    running the three-pass kernel; results union into the global k-way
    partitioning.
    """
    def run_node(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        pdf = pd.concat(list(batches), ignore_index=True)
        if len(pdf) == 0:
            return
        pdf = pdf.sort_values("pos")
        sub = EdgeStream(pdf["src"].to_numpy(), pdf["dst"].to_numpy())
        res = clugp_partition(
            sub, k, tau=tau, lam=lam, batch_size=batch_size, seed=seed,
            splitting=splitting, game=game,
        )
        pdf = pdf.assign(partition=res.edge_partition)
        yield pdf[["pos", "src", "dst", "partition"]]

    schema = "pos long, src long, dst long, partition long"
    return (
        edges.repartitionByRange(n_nodes, "pos")
        .mapInPandas(run_node, schema=schema)
    )
