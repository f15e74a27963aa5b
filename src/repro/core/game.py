"""Pass 2 — game-theoretic cluster partitioning (paper §V, Algorithm 3).

Clusters are players; strategies are the ``k`` partitions; the individual
cost (Eq 11) is

    φ(a_i) = (λ/k)·|c_i|·|a_i|  +  ½(|e(c_i,V∖a_i)| + |e(V∖a_i,c_i)|)

with ``|c_i|`` the intra-cluster edge count and ``|a_i|`` the load of the
chosen partition.  Best-response dynamics converge because the game is an
exact potential game (Theorem 4) with

    Φ(Λ) = (λ/2k)·Σ|p|² + ½·Σ|e(p,V∖p)|.

Loads are tracked as Σ of member clusters' intra-edge counts — the measure
under which the exact-potential identity ΔΦ ≡ Δφ holds (see DESIGN.md §6);
the inter-cluster edges that end up co-located are assigned in pass 3.

Cost: a best response scans its cluster's CSR row once, Θ(|N(c_i)|)
(Theorem 3), in C (``_kernels.c``), and scores only the partitions the row
touches, its own and the lightest.  ``GameResult.score_ops`` counts the
paper model's m·k scores per sweep, ``candidates_scored`` those run.

Parallelisation (paper §V-D): the paper hands ID-contiguous cluster
batches to threads.  Here every batch runs sequentially on the live state,
so the result does not depend on the batch size; each batch's wall time is
recorded, and Fig 10 models the thread sweep as the ``lpt_makespan`` of
that profile (threads on one live state would race; DESIGN.md §4).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import _kernels

#: Cap on best-response sweeps; Theorem 6 bounds the rounds well below it.
MAX_ROUNDS = 64


@dataclass
class GameResult:
    """Cluster → partition strategy profile Λ* plus convergence telemetry."""

    assignment: np.ndarray       # cluster id -> partition id
    lam: float
    rounds: int
    moves: int
    potential_trace: list[float] = field(default_factory=list)
    batch_times: list[float] = field(default_factory=list)
    score_ops: int = 0  # paper-model cost evaluations: m·k per sweep
    candidates_scored: int = 0  # cost evaluations the sweeps actually ran


def lpt_makespan(batch_times: list[float], threads: int) -> float:
    """Makespan of ``batch_times`` scheduled longest-first onto the
    least-loaded of ``threads`` lanes (LPT): Fig 10's modeled game time."""
    lanes = [0.0] * max(1, threads)
    for t in sorted(batch_times, reverse=True):
        lanes[lanes.index(min(lanes))] += t
    return max(lanes)


def lambda_max(sizes: np.ndarray, ext: np.ndarray, k: int) -> float:
    """Theorem 5's upper end of λ's range, the paper's experimental default."""
    tot = float(sizes.sum())
    if tot == 0:
        return 1.0
    return k * k * float(ext.sum()) / (tot * tot)


def lambda_eq(sizes: np.ndarray, ext: np.ndarray, k: int) -> float:
    """Eq 15's equal-importance normalisation (λ_max / k)."""
    return lambda_max(sizes, ext, k) / k


def resolve_lambda(lam, sizes: np.ndarray, ext: np.ndarray, k: int) -> float:
    """``lam`` may be 'max', 'eq', a float, or a relative weight tuple
    ``('weight', w)`` mapping w∈(0,1) to (w/(1−w))·λ_eq (Fig 11(b)).

    λ must come out finite and ≥ 0: the best response scores partitions
    without neighbours through the lightest one, which is exact only when
    cost does not decrease with load.
    """
    if lam == "max":
        lam_v = lambda_max(sizes, ext, k)
    elif lam == "eq":
        lam_v = lambda_eq(sizes, ext, k)
    elif isinstance(lam, tuple) and lam[0] == "weight":
        w = float(lam[1])
        if not 0.0 < w < 1.0:
            raise ValueError(f"relative weight must be in (0,1), got {w}")
        lam_v = (w / (1.0 - w)) * lambda_eq(sizes, ext, k)
    else:
        lam_v = float(lam)
    if not (math.isfinite(lam_v) and lam_v >= 0.0):
        raise ValueError(f"λ must be finite and ≥ 0, got {lam_v}")
    return lam_v


def potential(assignment: np.ndarray, sizes: np.ndarray, adj, lam: float, k: int) -> float:
    """Exact potential Φ(Λ) (Eq 13) under the symmetrised cut weights."""
    loads = np.bincount(assignment, weights=sizes, minlength=k)
    indptr, cols, ws = adj
    # Each unordered inter-cluster pair appears twice in the symmetric CSR.
    rows = np.repeat(np.arange(len(sizes)), np.diff(indptr))
    cut = ws[assignment[rows] != assignment[cols]].sum() / 2.0
    return float(lam / (2.0 * k) * (loads**2).sum() + 0.5 * cut)


def _checked_csr(adj, m: int):
    """``adj`` as int64 arrays, checked to be a CSR over m clusters with ids
    in [0, m) and weights ≥ 1 (a zero weight would overrun the C scratch)."""
    indptr, cols, ws = (np.ascontiguousarray(x, dtype=np.int64) for x in adj)
    if not (len(indptr) == m + 1 and indptr[0] == 0 and indptr[-1] == len(cols) == len(ws)
            and (np.diff(indptr) >= 0).all() and (ws >= 1).all()):
        raise ValueError(f"adj is not a CSR of {m} rows and {len(cols)} entries, weights ≥ 1")
    return indptr, _kernels.indices(cols, m, "neighbour cluster id"), ws


def _best_response_pass(clusters, assignment, loads, sizes, ext, adj, lam: float, k: int):
    """One round-robin sweep of best responses over ``clusters``.

    ``assignment`` (int64, in [0, k)) and ``loads`` are mutated in place and
    ``adj`` is as ``_checked_csr`` returns it; returns the number of strategy
    changes and of partitions scored.  A best response scores the partitions
    its CSR row touches, its current partition and the globally lightest
    one.  That is exact for λ ≥ 0: a partition holding no neighbour costs
    (λ/k)|c_i|(load+|c_i|) + ½·ext, which does not decrease with load, so
    among those partitions the tie-break (cost, load, id) always picks the
    lightest.
    """
    order = _kernels.indices(clusters, len(sizes), "cluster id")
    scored = np.zeros(1, dtype=np.int64)
    moves = _kernels.lib.best_responses(
        len(order), order, k, lam / k, *adj, sizes, ext, assignment, loads,
        np.zeros(k, dtype=np.int64), np.empty(k, dtype=np.int64), scored)
    return moves, int(scored[0])


def play_game(
    sizes: np.ndarray,
    adj,
    k: int,
    *,
    lam="max",
    batch_size: int = 6400,
    seed: int = 0,
    track_potential: bool = False,
) -> GameResult:
    """Find a Nash equilibrium of the cluster-partitioning game.

    Each sweep runs best responses over the clusters in ID order, on the
    live assignment, one batch of ``batch_size`` ID-contiguous clusters at a
    time; ``batch_size`` only sets how the per-batch wall times in
    ``batch_times`` are split up.  Every committed move strictly lowers the
    potential Φ, so sweeps repeat until no cluster moves (Theorem 6 bounds
    the rounds).  A malformed cluster graph ``adj`` raises ``ValueError``.
    """
    m = len(sizes)
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    adj = _checked_csr(adj, m)
    indptr, _, ws = adj
    ext = np.bincount(np.repeat(np.arange(m), np.diff(indptr)), weights=ws, minlength=m)
    ext = ext.astype(np.float64)  # bincount gives int64 zeros when there is no edge
    lam_v = resolve_lambda(lam, sizes, ext, k)

    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, k, m, dtype=np.int64)
    loads = np.bincount(assignment, weights=sizes, minlength=k)
    batches = [np.arange(s, min(s + batch_size, m)) for s in range(0, m, batch_size)]

    result = GameResult(assignment, lam_v, rounds=0, moves=0)
    if track_potential:
        result.potential_trace.append(potential(assignment, sizes, adj, lam_v, k))

    for _ in range(MAX_ROUNDS):
        result.rounds += 1
        moved = 0
        for batch in batches:
            t0 = time.perf_counter()
            moves, scored = _best_response_pass(batch, assignment, loads, sizes, ext, adj,
                                                lam_v, k)
            result.batch_times.append(time.perf_counter() - t0)
            moved += moves
            result.candidates_scored += scored
            result.score_ops += len(batch) * k
        result.moves += moved
        if track_potential:
            result.potential_trace.append(potential(assignment, sizes, adj, lam_v, k))
        if moved == 0:
            break
    return result


def greedy_assign(sizes: np.ndarray, k: int) -> GameResult:
    """CLUGP-G ablation (Fig 9): big clusters go to small partitions, no game."""
    assignment = np.zeros(len(sizes), dtype=np.int64)
    loads = np.zeros(k)
    for i in np.argsort(-sizes, kind="stable").tolist():
        p = int(np.argmin(loads))
        assignment[i] = p
        loads[p] += sizes[i]
    return GameResult(assignment, lam=0.0, rounds=1, moves=len(sizes))
