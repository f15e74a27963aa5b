"""HDRF — High-Degree Replicated First (Petroni et al., CIKM'15).

The state-of-the-art one-pass heuristic the paper benchmarks against.
For each streamed edge (u,v), with *partial* degrees δ(u), δ(v) counted
from the stream, every partition p is scored

    C(p) = C_REP(p) + λ · (maxsize − |p|) / (ε + maxsize − minsize)

    C_REP(p) = g(u,p) + g(v,p),   g(w,p) = 1 + (1 − θ(w)) if p ∈ P(w) else 0
    θ(u) = δ(u) / (δ(u) + δ(v))

and the edge goes to the argmax — replicating high-degree vertices first.
Like Greedy it keeps the full replica table and scores all k partitions
per edge: O(k) time per edge (the Fig 7 scaling wall) and O(RF·|V|) space
(the Fig 6 bar).
"""
from __future__ import annotations

import numpy as np

from repro.graphs.generators import EdgeStream
from repro.partitioners.base import PartitionResult, register, timed


@register("hdrf")
def hdrf_partition(
    stream: EdgeStream, k: int, *, lam: float = 1.0, eps: float = 1.0
) -> PartitionResult:
    def run() -> PartitionResult:
        n = stream.id_bound
        rep = np.zeros((n, k), dtype=bool)
        deg = np.zeros(n, dtype=np.int64)
        loads = np.zeros(k, dtype=np.int64)
        out = np.empty(stream.n_edges, dtype=np.int64)

        for i, (u, v) in enumerate(zip(stream.src.tolist(), stream.dst.tolist())):
            deg[u] += 1
            deg[v] += 1
            du, dv = deg[u], deg[v]
            theta_u = du / (du + dv)
            g_u = np.where(rep[u], 2.0 - theta_u, 0.0)
            g_v = np.where(rep[v], 1.0 + theta_u, 0.0)  # 1 + (1 − θ(v))
            mx, mn = loads.max(), loads.min()
            c_bal = lam * (mx - loads) / (eps + mx - mn)
            p = int(np.argmax(g_u + g_v + c_bal))
            out[i] = p
            loads[p] += 1
            rep[u, p] = True
            rep[v, p] = True

        n_entries = int(rep.sum())
        return PartitionResult(
            out, k,
            space_bytes=16 * n_entries + 8 * n + 8 * k,  # replica table + δ[] + loads
            extra={"replica_entries": n_entries, "score_ops": stream.n_edges * k},
        )

    return timed(run)
