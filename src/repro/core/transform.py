"""Pass 3 — partition transformation (paper §III-C, Algorithm 1).

Third and final restream: joins the ⟨v,c⟩ table of pass 1 with the ⟨c,p⟩
table of pass 2 (queried sequentially, never materialised — O(1) per edge)
and maps every edge to a partition, enforcing the user's imbalance factor
τ via the per-partition cap ``L_max = τ|E|/k``:

* overflow: if an endpoint partition is full, fall back to the other, then
  to any underfull partition (lines 6–14);
* same partition: keep the edge local (lines 15–16);
* divided vertices: reuse the endpoint that was already replicated in
  pass 1 — cut it again rather than replicating a fresh vertex
  (lines 17–19, disambiguated per DESIGN.md §6);
* otherwise cut the higher-degree endpoint (lines 20–22, the HDRF/DBH
  power-law rule).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clustering import ClusteringResult
from repro.graphs.generators import EdgeStream


@dataclass
class TransformResult:
    """The ⟨e, p⟩ table (as an array aligned with stream position)."""

    edge_partition: np.ndarray  # stream position -> partition id
    loads: np.ndarray           # partition id -> #edges
    k: int

    def relative_balance(self) -> float:
        """τ achieved: k·max|p| / |E| (Section II-B)."""
        total = int(self.loads.sum())
        return float(self.k * self.loads.max() / total) if total else 1.0


def transform(
    stream: EdgeStream,
    clustering: ClusteringResult,
    cluster_partition: np.ndarray,
    k: int,
    *,
    tau: float = 1.0,
) -> TransformResult:
    """Run Algorithm 1: restream edges, emit one partition id per edge."""
    if tau < 1.0:
        raise ValueError(f"imbalance factor τ must be ≥ 1, got {tau}")
    n_e = stream.n_edges
    l_max = tau * n_e / k
    loads = [0] * k
    deg, divided = clustering.deg.tolist(), clustering.divided.tolist()
    a = cluster_partition
    out: list[int] = []
    # Loads only grow, so the first underfull partition only moves right.
    first_under = 0

    # Partitions holding pass-1 mirror copies of each divided vertex —
    # the O(1)-per-edge lookup behind Alg 1 lines 17–19 ("assign e to the
    # partitions where u(v)'s mirror vertex belongs to").
    mirror_parts: dict[int, set[int]] = {
        v: {int(a[c]) for c in cs} for v, cs in clustering.mirror_clusters.items()
    }
    empty: set[int] = set()

    # The ⟨v,c⟩ table is queried as of the edge's stream position (the
    # stream-time clusters recorded by pass 1): this is the accounting of
    # Fig 2, where e(v,v₁) belongs to v's *new* cluster c₁ while v's
    # earlier edges stay with c₀ — the very mechanism by which splitting
    # concentrates a high-degree vertex's later edges in one place.
    p_us = a[clustering.edge_cu].tolist()
    p_vs = a[clustering.edge_cv].tolist()

    for u, v, p_u, p_v in zip(stream.src.tolist(), stream.dst.tolist(), p_us, p_vs):
        if loads[p_u] >= l_max or loads[p_v] >= l_max:
            if loads[p_u] < l_max:
                p = p_u
            elif loads[p_v] < l_max:
                p = p_v
            else:
                while first_under < k and loads[first_under] >= l_max:
                    first_under += 1
                p = first_under if first_under < k else loads.index(min(loads))
        elif p_u == p_v:
            p = p_u
        elif divided[u] or divided[v]:
            # Reuse an existing replica: if the other endpoint's partition
            # already holds a mirror of the divided vertex, the edge costs
            # zero new replicas there.
            m_u = mirror_parts.get(u, empty)
            m_v = mirror_parts.get(v, empty)
            if p_v in m_u:
                p = p_v
            elif p_u in m_v:
                p = p_u
            elif divided[u] and divided[v]:
                p = p_u if loads[p_u] <= loads[p_v] else p_v
            elif divided[u]:
                p = p_v  # cut the already-replicated u again
            else:
                p = p_u
        elif deg[v] > deg[u]:
            p = p_u
        elif deg[u] > deg[v]:
            p = p_v
        else:
            p = p_u
        out.append(p)
        loads[p] += 1

    return TransformResult(
        edge_partition=np.array(out, dtype=np.int64),
        loads=np.array(loads, dtype=np.int64),
        k=k,
    )
