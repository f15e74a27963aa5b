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

The kernel is a plain Python loop over plain Python lists — the streaming
model is inherently a stateful sequential scan, so there is nothing to
gain from Catalyst here, and list indexing avoids numpy's per-scalar
boxing; the state becomes numpy arrays once, on exit.  Spark-level
parallelism happens one level up, where each "distributed node" runs this
kernel over its own substream (`repro.partitioners.base.partition_spark`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    does.  Note Alg 2 line 18 reads ``vol(c'_v) += deg[u]`` — a typo for
    ``deg[v]`` (symmetric with the u-branch, line 13); we use ``deg[v]``.
    """
    if v_max <= 0:
        raise ValueError(f"v_max must be positive, got {v_max}")
    n = stream.id_bound
    src, dst = stream.src.tolist(), stream.dst.tolist()

    clu = [-1] * n
    deg = [0] * n
    vol: list[int] = []  # cluster id -> volume; a new cluster appends
    mirror_clusters: dict[int, list[int]] = {}
    edge_cu = [0] * len(src)
    edge_cv = [0] * len(src)
    first_pos = [0] * n  # stream position of discovery
    recency = SPLIT_RECENCY * v_max

    # The endpoints' clusters and degrees live in locals for the whole
    # edge; a self-loop (u == v) keeps them equal.
    for i, (u, v) in enumerate(zip(src, dst)):
        # -- allocation ---------------------------------------------------
        c_u = clu[u]
        if c_u < 0:
            c_u = clu[u] = len(vol)
            vol.append(0)
            first_pos[u] = i
        c_v = clu[v]
        if c_v < 0:
            c_v = clu[v] = len(vol)
            vol.append(0)
            first_pos[v] = i
        d_u = deg[u] = deg[u] + 1
        d_v = deg[v] = deg[v] + 1
        if u == v:
            d_u = d_v
        vol[c_u] += 1
        vol[c_v] += 1
        # -- splitting (CLUGP only) --------------------------------------
        # Two stabilising guards on Alg 2's overflow check (DESIGN.md §6):
        # (a) deg < V_max — Theorem 2 assumes V_max = |E|/k > d_max; a
        #     vertex with degree ≥ V_max would re-split on every incident
        #     edge (its fresh cluster overflows immediately), churning one
        #     useless mirror per edge;
        # (b) recency — splitting pays off when the vertex's *future*
        #     neighbours concentrate in its new cluster ("high-degree
        #     vertices tend to form new clusters with subsequent
        #     neighbouring vertices", §IV-A), i.e. for vertices still on
        #     the BFS frontier. Splitting a long-settled vertex scatters
        #     its edge history over churn clusters instead.
        # u is checked before v, so v's check sees the volume u's split left.
        if splitting:
            if vol[c_u] >= v_max and d_u < v_max and first_pos[u] >= i - recency:
                clu[u] = len(vol)
                vol.append(d_u)
                vol[c_u] -= d_u
                mirror_clusters.setdefault(u, []).append(c_u)
                c_u = clu[u]
                if u == v:
                    c_v = c_u
            if vol[c_v] >= v_max and d_v < v_max and first_pos[v] >= i - recency:
                clu[v] = len(vol)
                vol.append(d_v)
                vol[c_v] -= d_v
                mirror_clusters.setdefault(v, []).append(c_v)
                c_v = clu[v]
        # -- migration ----------------------------------------------------
        # Hollocou's rule: the endpoint in the smaller cluster joins the
        # bigger one, provided the merge respects the volume cap.
        if c_u != c_v:
            vol_u = vol[c_u]
            vol_v = vol[c_v]
            if vol_u < v_max and vol_v < v_max:
                if vol_u <= vol_v:
                    if vol_v + d_u <= v_max:
                        clu[u] = c_v
                        vol[c_u] = vol_u - d_u
                        vol[c_v] = vol_v + d_u
                        c_u = c_v
                elif vol_u + d_v <= v_max:
                    clu[v] = c_u
                    vol[c_v] = vol_v - d_v
                    vol[c_u] = vol_u + d_v
                    c_v = c_u
        edge_cu[i] = c_u
        edge_cv[i] = c_v

    return ClusteringResult(
        clu=np.array(clu, dtype=np.int64),
        deg=np.array(deg, dtype=np.int64),
        vol=np.array(vol, dtype=np.int64),
        mirror_clusters=mirror_clusters,
        edge_cu=np.array(edge_cu, dtype=np.int64),
        edge_cv=np.array(edge_cv, dtype=np.int64),
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
