"""Pass 1 — streaming clustering (paper §IV, Algorithm 2).

The *allocation–splitting–migration* framework: a single sequential pass
over the edge stream maintaining, per vertex, its (partial) degree and its
cluster, and per cluster its *volume* (sum of member-vertex degrees).

* **allocation**: an unseen endpoint opens a fresh singleton cluster;
* **splitting** (CLUGP's addition over Holl): when a cluster's volume
  reaches ``V_max``, the vertex that pushed it over is *split out* into a
  fresh cluster, leaving a mirror behind in the old one — this is the
  operation Theorem 1/2 prove lowers the replication-factor bound on
  power-law graphs;
* **migration**: the endpoint sitting in the smaller cluster migrates to
  the larger one, when both stay under ``V_max``.

``splitting=False`` degenerates the kernel into Holl (Hollocou et al.),
which is both the paper's ablation CLUGP-S (Fig 9) and the prior art the
theorems compare against.

The per-edge loop is C (``_kernels.c``, compiled on first import by
``_kernels.py``): the streaming model is inherently a stateful sequential
scan, so neither Catalyst nor numpy vectorisation applies, and a compiled
loop is O(1) per edge as the paper's Java passes are (§VI-A).
``stream_cluster``'s docstring states the loop's rules, which the C source
follows line by line; the state lives in int64 numpy arrays throughout.
Spark-level parallelism happens one level up, where each "distributed
node" runs this kernel over its own substream
(`repro.partitioners.base.partition_spark`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import _kernels
from repro.graphs.generators import EdgeStream

#: Splitting's recency guard (DESIGN.md §6): only a vertex discovered within
#: the last ``SPLIT_RECENCY·V_max`` stream positions may be split out.
SPLIT_RECENCY = 1.0


@dataclass
class ClusteringResult:
    """Output of pass 1 (the ⟨v, c⟩ table plus bookkeeping for passes 2–3)."""

    clu: np.ndarray          # vertex -> final cluster id (-1 = never seen)
    deg: np.ndarray          # vertex -> degree counted from the stream
    vol: np.ndarray          # cluster id -> volume
    # Divided vertex -> the clusters it was split out of, one entry per split.
    mirror_clusters: dict[int, list[int]]
    # Stream-time cluster of each edge's endpoints (recorded when the edge
    # was processed, per Fig 2(b): e(v,v₁) belongs to c₁ even though v's
    # *earlier* edges stay behind in c₀). The cluster graph for pass 2 is
    # built from these, not from the final clu[] — a later split must not
    # retroactively rip a vertex's history out of its old clusters.
    edge_cu: np.ndarray
    edge_cv: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.vol)

    @property
    def divided(self) -> np.ndarray:
        """Bool per vertex: was ever split out (has mirrors)."""
        return np.isin(np.arange(len(self.clu)), list(self.mirror_clusters))

    @property
    def n_mirrors(self) -> int:
        """Mirror copies produced by splitting (0 for Holl): distinct
        ``(v, c)`` pairs with ``c ≠ clu[v]``.  A vertex split out of one
        cluster twice lists it twice, and one that later migrated back lists
        its own final cluster; neither is a mirror."""
        clu = self.clu
        return sum(len(set(cs) - {int(clu[v])}) for v, cs in self.mirror_clusters.items())

    def clustering_rf(self) -> float:
        """Replication factor of the clustering itself (masters+mirrors)/masters."""
        n_masters = int((self.clu >= 0).sum())
        if n_masters == 0:
            return 1.0
        return (n_masters + self.n_mirrors) / n_masters

    def space_bytes(self) -> int:
        """O(2|V|) state of this pass: clu[] + deg[] (+ cluster volumes)."""
        return int(self.clu.nbytes + self.deg.nbytes + self.vol.nbytes)


def stream_cluster(
    stream: EdgeStream,
    *,
    v_max: float,
    splitting: bool = True,
) -> ClusteringResult:
    """Run Algorithm 2 over ``stream`` with maximum cluster volume ``v_max``.

    The state arrays are indexed by vertex id, ``max id + 1`` long: callers
    pass a densified stream (``EdgeStream.densify``), as ``clugp_partition``
    does; a negative id raises ``ValueError``.  Note Alg 2 line 18 reads
    ``vol(c'_v) += deg[u]`` — a typo for ``deg[v]`` (symmetric with the
    u-branch, line 13); we use ``deg[v]``.

    For edge ``i = (u, v)``, in this order:

    * **allocation** — an unseen endpoint opens a cluster of volume 0 and
      records ``i`` as its discovery position; then ``deg[u]``, ``deg[v]``
      and both endpoint clusters' volumes grow by 1 (a self-loop counts
      twice on its one vertex and cluster).
    * **splitting** (CLUGP only) — u, then v (so v's check sees the volume
      u's split left): if the endpoint's cluster has volume ≥ ``v_max``,
      the endpoint moves to a fresh cluster of volume ``deg``, its old
      cluster keeps a mirror (``mirror_clusters``) and loses ``deg`` of
      volume.  Two stabilising guards apply (DESIGN.md §6): (a) ``deg <
      v_max`` — Theorem 2 assumes V_max = |E|/k > d_max; a vertex with
      degree ≥ V_max would re-split on every incident edge (its fresh
      cluster overflows immediately), churning one useless mirror per
      edge; (b) recency, discovery position ≥ ``i − SPLIT_RECENCY·v_max``
      — splitting pays off when the vertex's *future* neighbours
      concentrate in its new cluster ("high-degree vertices tend to form
      new clusters with subsequent neighbouring vertices", §IV-A), i.e.
      for vertices still on the BFS frontier; splitting a long-settled
      vertex scatters its edge history over churn clusters instead.
    * **migration** — Hollocou's rule: if the endpoints' clusters differ
      and both volumes are < ``v_max``, the endpoint in the smaller
      cluster (u on a tie) joins the other, provided the joined volume
      stays ≤ ``v_max``.
    * the edge's stream-time clusters go to ``edge_cu[i]``, ``edge_cv[i]``.
    """
    if v_max <= 0:
        raise ValueError(f"v_max must be positive, got {v_max}")
    n = stream.id_bound
    src = _kernels.indices(stream.src, n, "vertex id")
    dst = _kernels.indices(stream.dst, n, "vertex id")
    if len(src) != len(dst):
        raise ValueError(f"stream has {len(src)} sources but {len(dst)} destinations")
    n_e = len(src)

    clu = np.full(n, -1, dtype=np.int64)
    deg = np.zeros(n, dtype=np.int64)
    first_pos = np.zeros(n, dtype=np.int64)  # stream position of discovery
    edge_cu = np.empty(n_e, dtype=np.int64)
    edge_cv = np.empty(n_e, dtype=np.int64)
    # Each vertex opens one cluster and each split one more: room for n
    # splits first, doubled whenever the kernel stops for want of it.
    cap = 2 * n + 4
    vol, split_v, split_c = (np.empty(cap, dtype=np.int64) for _ in range(3))
    n_clusters = np.zeros(1, dtype=np.int64)
    n_splits = np.zeros(1, dtype=np.int64)
    i = 0
    while True:
        i = _kernels.lib.stream_cluster(
            i, n_e, src, dst, v_max, SPLIT_RECENCY * v_max, splitting, clu, deg, first_pos,
            vol, cap, n_clusters, split_v, split_c, n_splits, edge_cu, edge_cv)
        if i == n_e:
            break
        cap *= 2
        vol, split_v, split_c = (np.concatenate([x, np.empty_like(x)])
                                 for x in (vol, split_v, split_c))

    mirror_clusters: dict[int, list[int]] = {}
    n_s = int(n_splits[0])
    for v, c in zip(split_v[:n_s].tolist(), split_c[:n_s].tolist()):
        mirror_clusters.setdefault(v, []).append(c)
    return ClusteringResult(
        clu=clu,
        deg=deg,
        vol=vol[: int(n_clusters[0])].copy(),
        mirror_clusters=mirror_clusters,
        edge_cu=edge_cu,
        edge_cv=edge_cv,
    )


def cluster_graph(clustering: ClusteringResult):
    """Collapse the edge stream onto clusters (input of pass 2).

    Uses the *stream-time* endpoint clusters recorded by Algorithm 2.
    Returns ``(sizes, adj)`` where ``sizes[c] = |c| = |e(c,c)|`` (intra-
    cluster edges, Table II) and ``adj`` is a CSR-like symmetric adjacency
    ``(indptr, indices, weights)`` with ``weights`` counting inter-cluster
    edges in *both* directions (the game cost uses
    ``|e(c_i,V∖a_i)| + |e(V∖a_i,c_i)|``, i.e. the symmetrised count).
    """
    n_clusters = clustering.n_clusters
    cu, cv = clustering.edge_cu, clustering.edge_cv
    if np.any(cu < 0) or np.any(cv < 0):
        raise ValueError("cluster_graph: stream contains unclustered vertices")
    sizes = np.bincount(cu[cu == cv], minlength=n_clusters).astype(np.int64)

    # Symmetric CSR: each inter-cluster edge keys both its rows; the sorted
    # distinct keys are the (row, col) entries in CSR order, and their
    # counts the weights.
    inter = cu != cv
    cu, cv = cu[inter], cv[inter]
    key, ws = np.unique(np.concatenate([cu * n_clusters + cv, cv * n_clusters + cu]),
                        return_counts=True)
    rows, cols = np.divmod(key, n_clusters)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_clusters))))
    return sizes, (indptr, cols, ws.astype(np.int64))
