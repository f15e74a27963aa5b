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

Cost: the paper charges a best response Θ(|N(c_i)|), so Θ(m) per sweep
(Theorem 3).  Here each cluster keeps a live cut table
``{partition: |e(c_i, p)|}`` for the whole game, so a best response costs
O(|candidates|) — the partitions in its table, its own and the lightest —
and only a committed move pays O(|N(c_i)|), to update its neighbours'
tables.  The tables are built once, an O(nnz) numpy step before the first
sweep: outside the per-batch timings, inside the game's wall time.
``GameResult.score_ops`` counts the paper model's m·k scores per sweep,
``candidates_scored`` the scores actually run.

Parallelisation (paper §V-D): the paper hands ID-contiguous cluster
batches to threads.  Here every batch runs sequentially on the live state,
so the result does not depend on the batch size; each batch's wall time is
recorded, and Fig 10 models the thread sweep as the ``lpt_makespan`` of
that profile (Python's GIL would serialise real threads; DESIGN.md §4).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

#: Cap on best-response sweeps; Theorem 6 bounds the rounds well below it.
MAX_ROUNDS = 64


@dataclass
class GameResult:
    """Cluster → partition strategy profile Λ* plus convergence telemetry."""

    assignment: np.ndarray       # cluster id -> partition id
    loads: np.ndarray            # partition id -> Σ|c_i| of members
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


def _cut_tables(adj, assignment: np.ndarray, k: int) -> list[dict[int, int]]:
    """Each cluster's cut table ``{partition: Σ w}`` over its neighbours
    under ``assignment``: one ``np.unique`` over the keys ``row·k + a[col]``
    and a ``bincount`` of the weights, then one dict per cluster.  The
    weights are positive counts, so no table holds a zero entry."""
    indptr, cols, ws = adj
    m = len(indptr) - 1
    rows = np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))
    keys, inv = np.unique(rows * k + assignment[cols], return_inverse=True)
    cut = np.bincount(inv, weights=ws, minlength=len(keys)).astype(np.int64)
    entries = zip((keys % k).tolist(), cut.tolist())  # sorted by row
    return [dict(islice(entries, n)) for n in np.bincount(keys // k, minlength=m).tolist()]


def _best_response_pass(
    clusters,
    assignment: list[int],
    loads: list[float],
    sizes: list[int],
    ext: list[float],
    adj,
    cuts: list[dict[int, int]],
    lam: float,
    k: int,
) -> tuple[int, int]:
    """One round-robin sweep of best responses over ``clusters``.

    ``assignment``/``loads``/``cuts`` are mutated in place and ``adj`` is
    the CSR triple as lists; returns the number of strategy changes and of
    partitions scored.  ``cuts[i]`` is cluster i's live cut table (see
    ``_cut_tables``), so a best response reads no CSR row: it scores the
    partitions in ``cuts[i]``, its current partition and the globally
    lightest partition, O(|candidates|) per cluster.  That is exact for
    λ ≥ 0: a partition holding no neighbour costs
    (λ/k)|c_i|(load+|c_i|) + ½·ext, which does not decrease with load, so
    among those partitions the tie-break (cost, load, id) always picks the
    lightest.  A committed move of c_i from a to b costs O(|N(c_i)|): each
    neighbour's table loses c_i's weight at a and gains it at b.
    """
    indptr, cols, ws = adj
    scale = lam / k
    lightest = loads.index(min(loads))  # min by (load, id)
    moves = scored = 0
    for i in clusters:
        cut = cuts[i]
        size_i = sizes[i]
        ext_i = ext[i]
        cur = assignment[i]
        load_cur = loads[cur] - size_i
        cut_cur = cut.get(cur, 0)
        # Costs are evaluated in the dense scorer's floating-point order.
        a = scale * size_i
        cost_cur = a * (load_cur + size_i) + 0.5 * (ext_i - cut_cur)
        # Deterministic tie-breaks: lowest cost, then lightest load, then id.
        best, best_cost, best_load = cur, cost_cur, load_cur
        for p, cut_p in cut.items():
            if p != cur:
                load_p = loads[p]
                cost = a * (load_p + size_i) + 0.5 * (ext_i - cut_p)
                if cost < best_cost or cost == best_cost and (
                    load_p < best_load or load_p == best_load and p < best
                ):
                    best, best_cost, best_load = p, cost, load_p
        scored += len(cut) + (cut_cur == 0)
        if lightest != cur and lightest not in cut:
            scored += 1
            load_p = loads[lightest]
            cost = a * (load_p + size_i) + 0.5 * ext_i
            if cost < best_cost or cost == best_cost and (
                load_p < best_load or load_p == best_load and lightest < best
            ):
                best, best_cost, best_load = lightest, cost, load_p
        if best != cur and best_cost < cost_cur - 1e-12:
            moves += 1
            assignment[i] = best
            loads[cur] = load_cur
            loads[best] += size_i
            lo, hi = indptr[i], indptr[i + 1]
            for j, w in zip(cols[lo:hi], ws[lo:hi]):
                cut_j = cuts[j]
                left = cut_j[cur] - w
                if left:
                    cut_j[cur] = left
                else:
                    del cut_j[cur]
                cut_j[best] = cut_j.get(best, 0) + w
            if best == lightest:
                lightest = loads.index(min(loads))
            elif (load_cur, cur) < (loads[lightest], lightest):
                lightest = cur
    return moves, scored


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
    the rounds).  The clusters' cut tables are built once, in O(nnz) numpy
    work before the first sweep, and kept live by the moves.
    """
    m = len(sizes)
    indptr, cols, ws = adj
    ext = np.bincount(np.repeat(np.arange(m), np.diff(indptr)), weights=ws, minlength=m)
    lam_v = resolve_lambda(lam, sizes, ext, k)

    rng = np.random.default_rng(seed)
    assignment_np = rng.integers(0, k, m, dtype=np.int64)
    # The sweeps run on lists and dicts: numpy scalar indexing costs more
    # than the arithmetic it feeds.
    cuts = _cut_tables(adj, assignment_np, k)
    assignment = assignment_np.tolist()
    loads = np.bincount(assignment_np, weights=sizes, minlength=k).tolist()
    sizes_l, ext_l = sizes.tolist(), ext.tolist()
    adj_l = (indptr.tolist(), cols.tolist(), ws.tolist())
    batches = [range(s, min(s + batch_size, m)) for s in range(0, m, batch_size)]

    result = GameResult(assignment_np, np.asarray(loads), lam_v, rounds=0, moves=0)
    if track_potential:
        result.potential_trace.append(potential(assignment_np, sizes, adj, lam_v, k))

    for _ in range(MAX_ROUNDS):
        result.rounds += 1
        moved = 0
        for batch in batches:
            t0 = time.perf_counter()
            moves, scored = _best_response_pass(
                batch, assignment, loads, sizes_l, ext_l, adj_l, cuts, lam_v, k
            )
            result.batch_times.append(time.perf_counter() - t0)
            moved += moves
            result.candidates_scored += scored
            result.score_ops += len(batch) * k
        result.moves += moved
        if track_potential:
            result.potential_trace.append(
                potential(np.asarray(assignment), sizes, adj, lam_v, k)
            )
        if moved == 0:
            break
    result.assignment = np.array(assignment, dtype=np.int64)
    result.loads = np.array(loads, dtype=np.float64)
    return result


def greedy_assign(sizes: np.ndarray, k: int) -> GameResult:
    """CLUGP-G ablation (Fig 9): big clusters go to small partitions, no game."""
    assignment = np.zeros(len(sizes), dtype=np.int64)
    loads = np.zeros(k)
    for i in np.argsort(-sizes, kind="stable").tolist():
        p = int(np.argmin(loads))
        assignment[i] = p
        loads[p] += sizes[i]
    return GameResult(assignment, loads, lam=0.0, rounds=1, moves=len(sizes))
