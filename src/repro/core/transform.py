"""Pass 3 — partition transformation (paper §III-C, Algorithm 1).

Third and final restream: joins the ⟨v,c⟩ table of pass 1 with the ⟨c,p⟩
table of pass 2 (queried sequentially, never materialised — O(1) per edge)
and maps every edge to a partition, enforcing the user's imbalance factor
τ via the per-partition cap ``L_max = τ|E|/k``.  For edge ``(u, v)`` with
endpoint partitions ``p_u``, ``p_v``, the first rule that applies picks
its partition:

* overflow (lines 6–14, DESIGN.md §6): if ``p_u`` or ``p_v`` is full (load
  ≥ ``L_max``), the other one if it is not, else the lowest-id underfull
  partition.  Loads only grow, so that partition's id only moves right
  and one pointer finds it;
* same partition: ``p_u == p_v`` keeps the edge local (lines 15–16);
* divided vertices (lines 17–19, disambiguated per DESIGN.md §6): reuse
  the endpoint that was already replicated in pass 1 — cut it again
  rather than replicating a fresh vertex.  If u has a mirror in ``p_v``,
  ``p_v``; else if v has one in ``p_u``, ``p_u`` (either way the edge
  costs no new replica); else if both are divided, the less-loaded of
  ``p_u``, ``p_v`` (``p_u`` on a tie); else the partition of the endpoint
  that is not divided;
* otherwise cut the higher-degree endpoint (lines 20–22, the HDRF/DBH
  power-law rule): ``p_v`` if ``deg[u] > deg[v]``, else ``p_u``.

The ⟨v,c⟩ table is queried as of the edge's stream position (the
stream-time clusters ``edge_cu``/``edge_cv`` recorded by pass 1): this is
the accounting of Fig 2, where e(v,v₁) belongs to v's *new* cluster c₁
while v's earlier edges stay with c₀ — the very mechanism by which
splitting concentrates a high-degree vertex's later edges in one place.

Since τ ≥ 1, ``k·L_max ≥ |E|``: before edge i the loads sum to i < |E|, so
some partition is underfull and the overflow rule always finds one.

The per-edge loop is C (``_kernels.c``, built on first import), following
these rules line by line; ``transform`` checks every index it passes in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core import _kernels
from repro.core.clustering import ClusteringResult
from repro.graphs.generators import EdgeStream


@dataclass
class TransformResult:
    """The ⟨e, p⟩ table (as an array aligned with stream position)."""

    edge_partition: np.ndarray  # stream position -> partition id


def transform(
    stream: EdgeStream,
    clustering: ClusteringResult,
    cluster_partition: np.ndarray,
    k: int,
    *,
    tau: float = 1.0,
) -> TransformResult:
    """Run Algorithm 1: restream edges, emit one partition id per edge.

    ``cluster_partition`` needs an entry in ``[0, k)`` for each of the
    clustering's clusters; anything else raises ``ValueError``.
    """
    # NaN fails every comparison and ∞ lifts the cap: both would unbound L_max.
    if not (math.isfinite(tau) and tau >= 1.0):
        raise ValueError(f"imbalance factor τ must be finite and ≥ 1, got {tau}")
    n_v, n_c = len(clustering.deg), clustering.n_clusters
    src = _kernels.indices(stream.src, n_v, "vertex id")
    dst = _kernels.indices(stream.dst, n_v, "vertex id")
    n_e = len(src)
    if not len(dst) == len(clustering.edge_cu) == len(clustering.edge_cv) == n_e:
        raise ValueError("stream and clustering disagree on the number of edges")
    if len(cluster_partition) < n_c:
        raise ValueError(f"cluster_partition has {len(cluster_partition)} entries "
                         f"for {n_c} clusters")
    a = _kernels.indices(cluster_partition, k, "cluster partition")
    cu = _kernels.indices(clustering.edge_cu, n_c, "edge cluster")
    cv = _kernels.indices(clustering.edge_cv, n_c, "edge cluster")

    # Row v: the partitions holding divided vertex v's pass-1 mirrors,
    # sorted and distinct (never empty for a divided vertex) — the O(1)-
    # per-edge lookup behind Alg 1 lines 17–19 ("assign e to the partitions
    # where u(v)'s mirror vertex belongs to").
    mc = clustering.mirror_clusters
    m_v = _kernels.indices([v for v, cs in mc.items() for _ in cs], n_v, "divided vertex")
    m_c = _kernels.indices([c for cs in mc.values() for c in cs], n_c, "mirror cluster")
    pairs = np.unique(m_v * k + a[m_c])
    m_ptr = np.zeros(n_v + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // k, minlength=n_v), out=m_ptr[1:])

    out = np.empty(n_e, dtype=np.int64)
    _kernels.lib.transform(n_e, src, dst, cu, cv, a, clustering.deg, m_ptr, pairs % k,
                           tau * n_e / k, np.zeros(k, dtype=np.int64), out)
    return TransformResult(edge_partition=out)
