"""Tests for pass 2 — the cluster-partitioning game (§V)."""
import itertools

import numpy as np
import pytest

from repro.core.clustering import cluster_graph, stream_cluster
from repro.core.game import (
    _best_response_pass,
    greedy_assign,
    lambda_eq,
    lambda_max,
    lpt_makespan,
    play_game,
    potential,
    resolve_lambda,
)


def _toy_graph():
    """4 clusters: sizes [10,10,1,1]; heavy edge 0-1, light 2-3."""
    sizes = np.array([10, 10, 1, 1], dtype=np.int64)
    pairs = {(0, 1): 8, (2, 3): 2, (1, 2): 1}
    rows, cols, ws = [], [], []
    for (i, j), w in pairs.items():
        rows += [i, j]
        cols += [j, i]
        ws += [w, w]
    order = np.argsort(rows, kind="stable")
    rows = np.array(rows)[order]
    cols = np.array(cols)[order]
    ws = np.array(ws)[order]
    indptr = np.zeros(5, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    return sizes, (np.cumsum(indptr), cols, ws)


def _clustered(stream, k):
    c = stream_cluster(stream, v_max=stream.n_edges / k)
    return cluster_graph(c)


def test_lambda_max_matches_theorem5():
    sizes = np.array([3, 5], dtype=np.int64)
    ext = np.array([2.0, 2.0])
    k = 4
    assert lambda_max(sizes, ext, k) == pytest.approx(k * k * 4.0 / 64.0)
    assert lambda_eq(sizes, ext, k) == pytest.approx(lambda_max(sizes, ext, k) / k)


def test_lambda_zero_sizes_guard():
    assert lambda_max(np.zeros(3, dtype=np.int64), np.ones(3), 4) == 1.0


@pytest.mark.parametrize("w", [0.1, 0.5, 0.9])
def test_resolve_lambda_weight(w):
    sizes = np.array([3, 5], dtype=np.int64)
    ext = np.array([2.0, 2.0])
    lam = resolve_lambda(("weight", w), sizes, ext, 4)
    assert lam == pytest.approx((w / (1 - w)) * lambda_eq(sizes, ext, 4))


def test_resolve_lambda_invalid_weight():
    with pytest.raises(ValueError):
        resolve_lambda(("weight", 1.5), np.ones(2, dtype=np.int64), np.ones(2), 2)


def test_resolve_lambda_passthrough():
    assert resolve_lambda(2.5, np.ones(2, dtype=np.int64), np.ones(2), 2) == 2.5


@pytest.mark.parametrize("k", [2, 4, 8])
def test_assignment_valid(small_web, k):
    sizes, adj = _clustered(small_web, k)
    g = play_game(sizes, adj, k, seed=0)
    assert g.assignment.min() >= 0 and g.assignment.max() < k
    assert len(g.assignment) == len(sizes)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_potential_monotone_single_batch(small_web, seed):
    """Φ must be non-increasing under live sequential best responses."""
    sizes, adj = _clustered(small_web, 8)
    g = play_game(
        sizes, adj, 8, seed=seed, batch_size=10**9, track_potential=True
    )
    trace = np.array(g.potential_trace)
    assert (np.diff(trace) <= 1e-6).all()


@pytest.mark.parametrize("k", [2, 4])
def test_converges_to_equilibrium(small_web, k):
    """At termination no cluster can unilaterally improve (Nash check)."""
    sizes, adj = _clustered(small_web, k)
    g = play_game(sizes, adj, k, seed=0, batch_size=10**9)
    indptr, cols, ws = adj
    m = len(sizes)
    ext = np.zeros(m)
    np.add.at(ext, np.repeat(np.arange(m), np.diff(indptr)), ws)
    loads = np.bincount(g.assignment, weights=sizes, minlength=k)
    lam = g.lam
    violations = 0
    for i in range(m):
        cut_p = np.zeros(k)
        lo, hi = indptr[i], indptr[i + 1]
        if hi > lo:
            np.add.at(cut_p, g.assignment[cols[lo:hi]], ws[lo:hi])
        load_wo = loads.copy()
        load_wo[g.assignment[i]] -= sizes[i]
        cost = (lam / k) * sizes[i] * (load_wo + sizes[i]) + 0.5 * (ext[i] - cut_p)
        if cost.min() < cost[g.assignment[i]] - 1e-9:
            violations += 1
    assert violations == 0


def test_exact_potential_property():
    """Unilateral deviations: ΔΦ ≡ Δφ_i (Theorem 4), checked exhaustively."""
    sizes, adj = _toy_graph()
    indptr, cols, ws = adj
    k, lam = 3, 0.7
    m = len(sizes)
    ext = np.zeros(m)
    np.add.at(ext, np.repeat(np.arange(m), np.diff(indptr)), ws)

    def phi_i(a, i):
        cut = 0.0
        for j, w in zip(cols[indptr[i]:indptr[i + 1]], ws[indptr[i]:indptr[i + 1]]):
            if a[j] == a[i]:
                cut += w
        loads = np.bincount(a, weights=sizes, minlength=k)
        return (lam / k) * sizes[i] * loads[a[i]] + 0.5 * (ext[i] - cut)

    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, k, m)
        i = int(rng.integers(0, m))
        p_new = int(rng.integers(0, k))
        a2 = a.copy()
        a2[i] = p_new
        d_phi = phi_i(a2, i) - phi_i(a, i)
        d_pot = potential(a2, sizes, adj, lam, k) - potential(a, sizes, adj, lam, k)
        assert d_pot == pytest.approx(d_phi, abs=1e-9)


def test_pos_bound_on_toy():
    """Best equilibrium within 2× of brute-force optimum (Theorem 8: PoS ≤ 2)."""
    sizes, adj = _toy_graph()
    k = 2
    lam = 0.5

    def global_cost(a):
        loads = np.bincount(a, weights=sizes, minlength=k)
        indptr, cols, ws = adj
        cut = 0
        for i in range(len(sizes)):
            for j, w in zip(cols[indptr[i]:indptr[i + 1]], ws[indptr[i]:indptr[i + 1]]):
                if a[i] != a[j]:
                    cut += w
        return lam / k * (loads**2).sum() + cut / 2.0  # symmetrised directed cut

    best_opt = min(
        global_cost(np.array(a)) for a in itertools.product(range(k), repeat=len(sizes))
    )
    best_nash = min(
        global_cost(play_game(sizes, adj, k, lam=lam, seed=s).assignment)
        for s in range(5)
    )
    assert best_nash <= 2 * best_opt + 1e-9


def test_round_bound_theorem6(small_web):
    """Round count is far below the Theorem-6 bound Σ|e(c,V∖c)|."""
    sizes, adj = _clustered(small_web, 8)
    g = play_game(sizes, adj, 8, seed=0)
    bound = adj[2].sum() // 2
    assert 1 <= g.rounds <= max(2, bound)


def test_batched_equals_unbatched_validity(small_web):
    sizes, adj = _clustered(small_web, 8)
    games = [play_game(sizes, adj, 8, seed=0, batch_size=bs) for bs in (64, 1024, 10**9)]
    for g in games:
        # Batches run on the live state, so the batch size cannot change
        # the equilibrium reached.
        assert np.array_equal(g.assignment, games[0].assignment)


def test_modeled_parallel_time_decreases():
    batch_times = [1.0] * 16
    t1 = lpt_makespan(batch_times, 1)
    t4 = lpt_makespan(batch_times, 4)
    t16 = lpt_makespan(batch_times, 16)
    assert t1 == pytest.approx(16.0)
    assert t4 == pytest.approx(4.0)
    assert t16 == pytest.approx(1.0)


def test_greedy_assign_balances():
    sizes = np.array([8, 7, 6, 5, 1, 1], dtype=np.int64)
    g = greedy_assign(sizes, 2)
    loads = np.bincount(g.assignment, weights=sizes, minlength=2)
    assert abs(loads[0] - loads[1]) <= 2


def test_greedy_assign_big_to_small():
    sizes = np.array([100, 1, 1, 1], dtype=np.int64)
    g = greedy_assign(sizes, 2)
    # The giant cluster sits alone; the three small ones share the other.
    others = [g.assignment[i] for i in (1, 2, 3)]
    assert len(set(others)) == 1 and others[0] != g.assignment[0]


def test_score_ops_counted(small_web):
    sizes, adj = _clustered(small_web, 8)
    g = play_game(sizes, adj, 8, seed=0)
    assert g.score_ops >= len(sizes) * 8  # at least one full sweep


@pytest.mark.parametrize("k", [8, 256])
def test_candidates_scored_within_model(small_web, k):
    """Each best response scores between 1 (its own partition) and k
    partitions, so the executed scores lie between m and the paper-model
    m·k per sweep; at k=256 they are far below it."""
    sizes, adj = _clustered(small_web, k)
    g = play_game(sizes, adj, k, seed=0)
    m = len(sizes)
    assert g.rounds * m <= g.candidates_scored <= g.score_ops == g.rounds * m * k
    if k == 256:
        assert g.candidates_scored < g.score_ops / 4


@pytest.mark.parametrize("lam", [-1.0, -1e-9, float("inf"), float("nan")])
def test_resolve_lambda_rejects_negative_or_non_finite(lam):
    with pytest.raises(ValueError, match="finite and ≥ 0"):
        resolve_lambda(lam, np.ones(2, dtype=np.int64), np.ones(2), 2)


def test_resolve_lambda_accepts_zero():
    assert resolve_lambda(0.0, np.ones(2, dtype=np.int64), np.ones(2), 2) == 0.0


# The toy graph's CSR made malformed one way each: (indptr, cols, ws) -> adj.
MALFORMED = {
    "neighbour-id-m": (lambda p, c, w: (p, np.where(c == 3, 4, c), w), "neighbour cluster id"),
    "neighbour-id-negative": (lambda p, c, w: (p, np.where(c == 3, -1, c), w),
                              "neighbour cluster id"),
    "zero-weight": (lambda p, c, w: (p, c, np.where(w == 1, 0, w)), "not a CSR"),
    "decreasing-indptr": (lambda p, c, w: (np.array([0, 3, 1, 5, 6]), c, w), "not a CSR"),
    "short-indptr": (lambda p, c, w: (p[:-1], c, w), "not a CSR"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_play_game_rejects_malformed_cluster_graph(case):
    sizes, adj = _toy_graph()
    malform, match = MALFORMED[case]
    with pytest.raises(ValueError, match=match):
        play_game(sizes, malform(*adj), 2)


@pytest.mark.parametrize("bad", [-1, 4])
def test_best_response_pass_rejects_order_id_out_of_range(bad):
    sizes, adj = _toy_graph()
    assignment = np.zeros(len(sizes), dtype=np.int64)
    loads = np.bincount(assignment, weights=sizes, minlength=2)
    ext = np.bincount(np.repeat(np.arange(4), np.diff(adj[0])), weights=adj[2], minlength=4)
    with pytest.raises(ValueError, match="cluster id"):
        _best_response_pass([0, bad], assignment, loads, sizes, ext, adj, 1.0, 2)
