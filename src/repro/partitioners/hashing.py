"""Hashing-based vertex-cut baselines: Hashing (PowerGraph) and DBH.

* **Hashing** [PowerGraph]: partition = hash(edge) — O(1) time, zero
  state, the low-quality/low-cost corner of Table I.
* **DBH** [Xie et al., NeurIPS'14]: hash the endpoint with the lower
  *partial* degree (degree counted from the stream so far — the streaming
  setting), so high-degree vertices are the ones cut.  State is one degree
  array, O(|V|).

Both are fully vectorisable; DBH's partial-degree tie to stream order is
reproduced with a cumulative counting trick rather than a Python loop.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.generators import EdgeStream
from repro.partitioners.base import PartitionResult, register, timed

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _hash64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix (splitmix64 finaliser), vectorised."""
    z = x.astype(np.uint64) + _MIX
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@register("hashing")
def hashing_partition(stream: EdgeStream, k: int, *, seed: int = 0) -> PartitionResult:
    """Random edge placement by hashing the (src,dst) pair."""

    def run() -> PartitionResult:
        key = stream.src.astype(np.uint64) * np.uint64(1_000_003) + stream.dst.astype(
            np.uint64
        ) + np.uint64(seed)
        parts = (_hash64(key) % np.uint64(k)).astype(np.int64)
        return PartitionResult(parts, k, space_bytes=0, extra={"score_ops": 0})

    return timed(run)


@register("dbh")
def dbh_partition(stream: EdgeStream, k: int, *, seed: int = 0) -> PartitionResult:
    """Degree-Based Hashing: hash the lower-partial-degree endpoint."""

    def run() -> PartitionResult:
        n = stream.id_bound
        # Partial degree of u at the moment edge i arrives = number of
        # earlier occurrences of u among all endpoints.  Computed as the
        # running occurrence index of each endpoint in the interleaved
        # src/dst sequence (src of edge i precedes dst of edge i).
        seq = np.empty(2 * stream.n_edges, dtype=np.int64)
        seq[0::2] = stream.src
        seq[1::2] = stream.dst
        order = np.argsort(seq, kind="stable")
        ranks = np.empty_like(order)
        boundaries = np.flatnonzero(np.diff(seq[order]) != 0) + 1
        starts = np.concatenate([[0], boundaries])
        occ = np.arange(len(seq)) - np.repeat(starts, np.diff(np.concatenate([starts, [len(seq)]])))
        ranks[order] = occ
        deg_src = ranks[0::2]
        deg_dst = ranks[1::2]
        cut_src = deg_src <= deg_dst  # lower partial degree is hashed
        key = np.where(cut_src, stream.src, stream.dst).astype(np.uint64) + np.uint64(seed)
        parts = (_hash64(key) % np.uint64(k)).astype(np.int64)
        return PartitionResult(parts, k, space_bytes=8 * n, extra={"score_ops": stream.n_edges})

    return timed(run)
