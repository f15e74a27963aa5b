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
kernel over its own substream (`repro.core.clugp.clugp_partition_spark`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    n_clusters: int
    divided: np.ndarray      # bool per vertex: was ever split out (has mirrors)
    mirror_clusters: dict[int, list[int]] = field(default_factory=dict)
    v_max: float = 0.0
    # Stream-time cluster of each edge's endpoints (recorded when the edge
    # was processed, per Fig 2(b): e(v,v₁) belongs to c₁ even though v's
    # *earlier* edges stay behind in c₀). The cluster graph for pass 2 is
    # built from these, not from the final clu[] — a later split must not
    # retroactively rip a vertex's history out of its old clusters.
    edge_cu: np.ndarray | None = None
    edge_cv: np.ndarray | None = None

    @property
    def n_mirrors(self) -> int:
        """Mirror copies produced by splitting (0 for Holl)."""
        return sum(len(v) for v in self.mirror_clusters.values())

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
    n_vertices: int | None = None,
) -> ClusteringResult:
    """Run Algorithm 2 over ``stream`` with maximum cluster volume ``v_max``.

    ``n_vertices`` sizes the state arrays; defaults to ``max id + 1``.
    Note Alg 2 line 18 reads ``vol(c'_v) += deg[u]`` — a typo for
    ``deg[v]`` (symmetric with the u-branch, line 13); we use ``deg[v]``.
    """
    if v_max <= 0:
        raise ValueError(f"v_max must be positive, got {v_max}")
    n = n_vertices or stream.id_bound
    src, dst = stream.src.tolist(), stream.dst.tolist()

    clu = [-1] * n
    deg = [0] * n
    vol: list[int] = []  # cluster id -> volume; a new cluster appends
    divided = [False] * n
    mirror_clusters: dict[int, list[int]] = {}
    edge_cu: list[int] = []
    edge_cv: list[int] = []
    first_pos = [0] * n  # stream position of discovery

    for i, (u, v) in enumerate(zip(src, dst)):
        # -- allocation ---------------------------------------------------
        if clu[u] < 0:
            clu[u] = len(vol)
            vol.append(0)
            first_pos[u] = i
        if clu[v] < 0:
            clu[v] = len(vol)
            vol.append(0)
            first_pos[v] = i
        deg[u] += 1
        deg[v] += 1
        vol[clu[u]] += 1
        vol[clu[v]] += 1
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
        if splitting:
            recent = i - SPLIT_RECENCY * v_max
            for w in (u, v):
                c = clu[w]
                d = deg[w]
                if vol[c] >= v_max and d < v_max and first_pos[w] >= recent:
                    clu[w] = len(vol)
                    vol.append(d)
                    vol[c] -= d
                    divided[w] = True
                    mirror_clusters.setdefault(w, []).append(c)
        # -- migration ----------------------------------------------------
        # Hollocou's rule: the endpoint in the smaller cluster joins the
        # bigger one, provided the merge respects the volume cap.
        c_u, c_v = clu[u], clu[v]
        if c_u != c_v and vol[c_u] < v_max and vol[c_v] < v_max:
            if vol[c_u] <= vol[c_v]:
                if vol[c_v] + deg[u] <= v_max:
                    clu[u] = c_v
                    vol[c_u] -= deg[u]
                    vol[c_v] += deg[u]
            else:
                if vol[c_u] + deg[v] <= v_max:
                    clu[v] = c_u
                    vol[c_v] -= deg[v]
                    vol[c_u] += deg[v]
        edge_cu.append(clu[u])
        edge_cv.append(clu[v])

    return ClusteringResult(
        clu=np.array(clu, dtype=np.int64),
        deg=np.array(deg, dtype=np.int64),
        vol=np.array(vol, dtype=np.int64),
        n_clusters=len(vol),
        divided=np.array(divided, dtype=bool),
        mirror_clusters=mirror_clusters,
        v_max=float(v_max),
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
    if cu is None or np.any(cu < 0) or np.any(cv < 0):
        raise ValueError("cluster_graph: stream contains unclustered vertices")
    sizes = np.bincount(cu[cu == cv], minlength=n_clusters).astype(np.int64)

    inter = cu != cv
    lo = np.minimum(cu[inter], cv[inter])
    hi = np.maximum(cu[inter], cv[inter])
    key = lo.astype(np.int64) * n_clusters + hi
    uniq, w = np.unique(key, return_counts=True)
    lo_u = (uniq // n_clusters).astype(np.int64)
    hi_u = (uniq % n_clusters).astype(np.int64)

    # Symmetric CSR: every unordered pair appears in both rows.
    rows = np.concatenate([lo_u, hi_u])
    cols = np.concatenate([hi_u, lo_u])
    ws = np.concatenate([w, w]).astype(np.int64)
    order = np.argsort(rows, kind="stable")
    rows, cols, ws = rows[order], cols[order], ws[order]
    indptr = np.zeros(n_clusters + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    indptr = np.cumsum(indptr)
    return sizes, (indptr, cols, ws)
