"""Mint — quasi-streaming game-theoretic edge partitioning (Hua et al.,
TPDS'19), reimplemented from its paper's description (the original source
is closed; see DESIGN.md §6).

Edges arrive in fixed-size *windows*; within a window each edge is a
player choosing among the k partitions to minimise

    cost(e=(u,v), p) = β·|p|·k/|E_seen|  +  [u ∉ p]  +  [v ∉ p]

where vertex-membership is tracked *window-locally* (plus the running
partition loads) — that bounded state is exactly why Mint sits at the
medium/medium point of Table I: O(window) space, no global replica table,
but several best-response rounds of O(k) scoring per edge per window.

The rounds are executed Jacobi-style (all edges re-choose against a
snapshot, then memberships/loads rebuild), which vectorises the whole
window into a handful of numpy ops while keeping the game's fixed-point
semantics; a no-move round terminates the window.  β, the round cap
and the seed are the module constants ``BETA``, ``MAX_ROUNDS`` and
``SEED`` (DESIGN.md §6); the window is the one setting.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.generators import EdgeStream
from repro.partitioners.base import PartitionResult, register

#: β (load weight), rounds per window at most, seed of the initial
#: choices and the damping draws.
BETA = 1.0
MAX_ROUNDS = 8
SEED = 0


@register("mint")
def mint_partition(stream: EdgeStream, k: int, *, window: int = 4096) -> PartitionResult:
    n_e = stream.n_edges
    loads = np.zeros(k, dtype=np.int64)
    out = np.empty(n_e, dtype=np.int64)
    rng = np.random.default_rng(SEED)
    score_ops = 0

    for w0 in range(0, n_e, window):
        w1 = min(w0 + window, n_e)
        w_n = w1 - w0
        # Window-local vertex ids.
        verts, local = EdgeStream(stream.src[w0:w1], stream.dst[w0:w1]).densify()
        lu, lv = local.src, local.dst
        assign = rng.integers(0, k, w_n)
        seen = max(1, w1)

        for _ in range(MAX_ROUNDS):
            score_ops += w_n * k
            members = np.zeros((len(verts), k), dtype=np.int64)
            np.add.at(members, (lu, assign), 1)
            np.add.at(members, (lv, assign), 1)
            wloads = loads + np.bincount(assign, minlength=k)
            # Self-exclusive membership/load view per edge.
            m_u = members[lu].copy()
            m_v = members[lv].copy()
            rows = np.arange(w_n)
            m_u[rows, assign] -= 1
            m_v[rows, assign] -= 1
            wl = wloads[None, :].astype(np.float64).repeat(w_n, axis=0)
            wl[rows, assign] -= 1
            cost = BETA * wl * k / seen + (m_u == 0) + (m_v == 0)
            # Hard capacity mask (τ=1.1), mirroring the balance
            # constraint of Eq 1 — the soft β term alone lets hub
            # partitions drift at large k.
            over = wl >= 1.1 * seen / k
            cost = np.where(over & ~over.all(axis=1, keepdims=True), np.inf, cost)
            best = np.argmin(cost, axis=1)
            # Damped Jacobi: only a random half of the improving edges
            # move each round, else whole windows stampede into the
            # momentarily-cheapest partition and oscillate.
            improves = cost[rows, best] < cost[rows, assign] - 1e-9
            movers = improves & (rng.random(w_n) < 0.5)
            if not movers.any():
                break
            assign = np.where(movers, best, assign)

        out[w0:w1] = assign
        loads += np.bincount(assign, minlength=k)

    return PartitionResult(
        out,
        # Window state only: per-window membership vectors + loads.
        space_bytes=8 * k * min(2 * window, 2 * n_e) + 8 * k,
        extra={"score_ops": score_ops},
    )
