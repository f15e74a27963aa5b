"""Golden assignments of the CLUGP kernels, and the incremental best
response checked against the dense scorer it replaced.

The hashes pin ``clugp_partition(...).edge_partition`` bit for bit: a
rewrite of any of the three passes must reproduce them unchanged.  Each is
the sha256 of the assignment as little-endian int64, the digest the
benchmark's golden check uses.  Next to each hash are the run's
``(n_clusters, game_rounds, score_ops)``, so a rewrite that reaches the
same assignment by other work shows too.
"""
import hashlib

import numpy as np
import pytest

from repro.core.clugp import clugp_partition
from repro.core.game import _best_response_pass, _cut_tables, lambda_max
from repro.graphs.generators import dataset

GOLDEN = [
    ("uk", 0.002, 4, {}, (713, 4, 23408),
     "6483400b5fb55b32bfa4c6f5c2956038534b0bf11d32aae3bb3a08b65ea95342"),
    ("uk", 0.002, 64, {}, (420, 3, 92640),
     "e2e8c40e29e83d5a098f5e7fd9a9a39dbf77c00e64bdf211d19bf77b8bee2a9b"),
    ("uk", 0.002, 256, {}, (407, 3, 324576),
     "d608d9fb74c6b4cc57a14ddfb142ffc0d2423345365ea59ca07a28eba0f7738f"),
    ("it", 0.001, 4, {}, (571, 3, 26052),
     "3f0433500a526b9a5593245593378d934473b9023652ce3582106ddb2d51b375"),
    ("it", 0.001, 64, {}, (351, 3, 86592),
     "cbf5131ddb8641821bfba5d04aeb280aeccba7298e0612848d27fa12f52c5eec"),
    ("it", 0.001, 256, {}, (326, 4, 353024),
     "741110bbac6ab34c85e1d594d85f92ed01b8916856bf2e3a963c3dec96341091"),
    ("twitter", 0.001, 4, {}, (570, 3, 24840),
     "2cf7694b71e00c20eed7f0da5ccb02e1e9ed277aacfb87869712893b67fb206c"),
    ("twitter", 0.001, 64, {}, (324, 3, 80208),
     "a2ab1265411a034e39e048654e56dbf1779b9aeec7abba8d64646892277cafdb"),
    ("twitter", 0.001, 256, {}, (322, 2, 182864),
     "a553b17f65b625796fcad90737df80244b0ece2afaa22d67101baa5d8af1baec"),
    ("uk", 0.002, 32, {"splitting": False}, (400, 3, 50400),
     "e5423cd61dac6ec1245ad0d9d610c973d764425f91156820dc380aa9cdec3aa8"),
    ("it", 0.001, 32, {"game": False}, (381, 1, 19200),
     "86fc24eee59bb1690779351f424158e1f21204bc33a2df6ccda807ff27adf556"),
    ("twitter", 0.001, 32, {"tau": 1.1}, (337, 2, 39568),
     "2c709eeca9abde275c1f76a24e86cd3e0c3c90af43f8c5746120fbd365078f2d"),
    ("uk", 0.002, 64, {"lam": "eq"}, (420, 5, 146400),
     "c2562df265c908f422689033e3c592172e275e32281802d77c4df520b5510ab6"),
    ("it", 0.001, 16, {"lam": 0.0}, (411, 3, 38928),
     "fc0681df95d2ef7122b88ffb66c5cf4c2d8dd8813813808f5edbaf811bfa942a"),
    ("uk", 0.002, 8, {"lam": ("weight", 0.1), "seed": 1}, (628, 3, 27072),
     "4dbff2b9b21d5d056790242460afa7cc74a31213bf2b1a44e6f794875cc10b47"),
    ("it", 0.001, 16, {"batch_size": 64}, (411, 4, 45504),
     "611bb1aa7c44f9161361755263dca9a7c9ce5f27773eb66d32a0b9c61207979c"),
]


def _digest(edge_partition: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(edge_partition, dtype="<i8").tobytes()).hexdigest()


@pytest.mark.parametrize(
    "name,sf,k,kwargs,counts,sha",
    GOLDEN,
    ids=[f"{n}-k{k}-{'-'.join(kw) or 'default'}" for n, _, k, kw, _, _ in GOLDEN],
)
def test_golden_assignment(name, sf, k, kwargs, counts, sha):
    res = clugp_partition(dataset(name, sf=sf), k, **kwargs)
    assert _digest(res.edge_partition) == sha
    assert (res.extra["n_clusters"], res.extra["game_rounds"], res.extra["score_ops"]) == counts


def _dense_best_response_pass(clusters, assignment, loads, sizes, ext, adj, lam, k):
    """The reference scorer: every cluster scores all k partitions with a
    numpy ``lexsort`` over (cost, load, id)."""
    indptr, cols, ws = adj
    moves = 0
    for i in clusters.tolist():
        cut_p = np.zeros(k)
        lo, hi = indptr[i], indptr[i + 1]
        if hi > lo:
            np.add.at(cut_p, assignment[cols[lo:hi]], ws[lo:hi])
        size_i = sizes[i]
        cur = assignment[i]
        load_wo = loads.astype(np.float64).copy()
        load_wo[cur] -= size_i
        cost = (lam / k) * size_i * (load_wo + size_i) + 0.5 * (ext[i] - cut_p)
        best = int(np.lexsort((np.arange(k), load_wo, cost))[0])
        if best != cur and cost[best] < cost[cur] - 1e-12:
            moves += 1
            assignment[i] = best
            loads[cur] -= size_i
            loads[best] += size_i
    return moves


def _random_game(rng):
    """A cluster graph with ties: zero-size clusters, equal sizes (hence
    equal loads), isolated clusters, and λ drawn from {0, λ_max, others}."""
    m = int(rng.integers(1, 40))
    k = int(rng.choice([1, 2, 3, 5, 8, 16]))
    if rng.random() < 0.3:
        sizes = np.full(m, int(rng.integers(0, 3)), dtype=np.int64)
    else:
        sizes = rng.choice([0, 0, 1, 2, 3, 7], size=m).astype(np.int64)
    n_pairs = int(rng.integers(0, 2 * m + 1))
    pairs = {}
    for _ in range(n_pairs):
        i, j = (int(x) for x in rng.integers(0, m, 2))
        if i != j:
            key = (min(i, j), max(i, j))
            pairs[key] = pairs.get(key, 0) + int(rng.integers(1, 4))
    rows = [i for i, j in pairs] + [j for i, j in pairs]
    cols = [j for i, j in pairs] + [i for i, j in pairs]
    ws = list(pairs.values()) * 2
    order = np.argsort(np.array(rows, dtype=np.int64), kind="stable")
    cols = np.array(cols, dtype=np.int64)[order]
    ws = np.array(ws, dtype=np.int64)[order]
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.add.at(indptr, np.array(rows, dtype=np.int64) + 1, 1)
    adj = (np.cumsum(indptr), cols, ws)
    ext = np.zeros(m)
    np.add.at(ext, np.repeat(np.arange(m), np.diff(adj[0])), ws)
    lam = float(rng.choice([0.0, 0.5, 1.0, 4.0, 50.0]))
    if rng.random() < 0.3:
        lam = lambda_max(sizes, ext, k)
    assignment = rng.integers(0, k, m, dtype=np.int64)
    if rng.random() < 0.2:
        assignment[:] = 0  # every cluster starts on one partition
    return sizes, adj, ext, lam, k, assignment


def _recount_cuts(adj, assignment):
    """Each cluster's ``{partition: Σ w}``, counted from its CSR row."""
    indptr, cols, ws = adj
    cuts = []
    for i in range(len(indptr) - 1):
        cut = {}
        for j, w in zip(cols[indptr[i]:indptr[i + 1]], ws[indptr[i]:indptr[i + 1]]):
            cut[assignment[j]] = cut.get(assignment[j], 0) + w
        cuts.append(cut)
    return cuts


@pytest.mark.parametrize("seed", range(40))
def test_sparse_best_response_matches_dense(seed):
    """Same moves, assignments and loads as the dense scorer, sweep by sweep;
    and after every sweep each live cut table equals a recount from the
    assignment and holds no zero entry."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        sizes, adj, ext, lam, k, assignment = _random_game(rng)
        loads = np.bincount(assignment, weights=sizes, minlength=k)
        a_dense, l_dense = assignment.copy(), loads.copy()
        a_sparse, l_sparse = assignment.tolist(), loads.tolist()
        adj_l = tuple(x.tolist() for x in adj)
        cuts = _cut_tables(adj, assignment, k)
        order = rng.permutation(len(sizes))  # any sweep order, not only ids
        for _sweep in range(20):
            moved = _dense_best_response_pass(order, a_dense, l_dense, sizes, ext, adj, lam, k)
            moves, scored = _best_response_pass(
                order.tolist(), a_sparse, l_sparse, sizes.tolist(), ext.tolist(), adj_l, cuts, lam, k
            )
            assert moves == moved
            assert a_sparse == a_dense.tolist()
            assert l_sparse == l_dense.tolist()
            assert cuts == _recount_cuts(adj_l, a_sparse)
            assert all(0 not in cut.values() for cut in cuts)
            assert len(sizes) <= scored <= len(sizes) * k
            if moved == 0:
                break
