"""Greedy vertex-cut streaming partitioning (PowerGraph's "Greedy", §VII).

The classic four-rule heuristic, per Gonzalez et al. (OSDI'12):

1. both endpoints already share partitions → least-loaded shared one;
2. both placed but disjoint → least-loaded partition among their union;
3. exactly one endpoint placed → one of its partitions (least loaded);
4. neither placed → globally least-loaded partition.

State is the full vertex→partition-set replica table plus partition loads
— the "global status table" whose maintenance makes heuristic methods the
high-cost row of Table I (O(k) work per edge, O(RF·|V|) space).
"""
from __future__ import annotations

import numpy as np

from repro.graphs.generators import EdgeStream
from repro.partitioners.base import PartitionResult, register, timed


@register("greedy")
def greedy_partition(stream: EdgeStream, k: int) -> PartitionResult:
    def run() -> PartitionResult:
        n = stream.id_bound
        rep = np.zeros((n, k), dtype=bool)  # P(v) membership table
        loads = np.zeros(k, dtype=np.int64)
        out = np.empty(stream.n_edges, dtype=np.int64)
        inf = np.iinfo(np.int64).max

        for i, (u, v) in enumerate(zip(stream.src.tolist(), stream.dst.tolist())):
            ru, rv = rep[u], rep[v]
            inter = ru & rv
            if inter.any():
                cand = inter
            elif ru.any() and rv.any():
                cand = ru | rv
            elif ru.any():
                cand = ru
            elif rv.any():
                cand = rv
            else:
                cand = None
            if cand is None:
                p = int(np.argmin(loads))
            else:
                p = int(np.argmin(np.where(cand, loads, inf)))
            out[i] = p
            loads[p] += 1
            ru[p] = True
            rv[p] = True

        n_entries = int(rep.sum())
        return PartitionResult(
            out, k, space_bytes=16 * n_entries + 8 * k,
            extra={"replica_entries": n_entries, "score_ops": stream.n_edges * k},
        )

    return timed(run)
