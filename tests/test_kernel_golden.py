"""Golden assignments of the CLUGP kernels and of every baseline, and the
row-scan best response checked against a dense scorer of all k partitions.

The hashes pin ``clugp_partition(...).edge_partition`` bit for bit: a
rewrite of any of the three passes must reproduce them unchanged.  Each is
the sha256 of the assignment as little-endian int64, the digest the
benchmark's golden check uses.  Next to each hash are the run's
``(n_clusters, game_rounds, score_ops)``, so a rewrite that reaches the
same assignment by other work shows too.  ``BASELINE_GOLDEN`` pins the
five baselines the same way, each run over its ``ordered_stream`` order.
"""
import hashlib

import numpy as np
import pytest

from repro.core.clugp import clugp_partition
from repro.core.game import _best_response_pass, lambda_max
from repro.experiments.harness import ordered_stream
from repro.graphs.generators import dataset
from repro.partitioners import get_partitioner

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


BASELINE_GOLDEN = [
    ("uk", 0.002, "hashing", 4, "12b202f2e17a8fa1bf68b5d7bee4a6b21791951363101cdcfa69d4900e7f1b91"),
    ("uk", 0.002, "hashing", 64, "7f703fb057b2e4cc89ea18295e05958111d8cacc00e9801e9e8043694dbd2fd3"),
    ("uk", 0.002, "dbh", 4, "9e0b44e934f1598a799d26558826e87c814811059be7873ebdd25d7b9aa1a98d"),
    ("uk", 0.002, "dbh", 64, "24cbf665598aa01a4bd5528794070a87ac1d57a4452773ab3686fb3836a92485"),
    ("uk", 0.002, "greedy", 4, "12967879fe075b07d087f84c0e4dff334199d0e48bf8dde0a97be83095a14a52"),
    ("uk", 0.002, "greedy", 64, "0535149ec9590625a18b57b226e806351be880de88e644fc77d7bae6c730dd13"),
    ("uk", 0.002, "hdrf", 4, "447610765f7b5bb40d99915a181620d13698e80255da1affb4bd42f80962263d"),
    ("uk", 0.002, "hdrf", 64, "1088359daae6ab46d9884a20986442ffc09bd08c31be786b18384b06fd2266c2"),
    ("uk", 0.002, "mint", 4, "148aca4b1cd01b7a063a27415a6329f33ef9b629791ad60fe6d7f5c0a66876a3"),
    ("uk", 0.002, "mint", 64, "5ebbb1ee98edfbd17559fda63f1d549af8e6dbad66117c5cb9827734c49ca0fd"),
    ("it", 0.001, "hashing", 4, "531482e05b3d69fa9c19e23e7966606051f82ee8e0f7378519ec3933645b8229"),
    ("it", 0.001, "hashing", 64, "09b68420b4ea68c339c981cd1931acccee1581dc2bdcfcb24acb93707493ab38"),
    ("it", 0.001, "dbh", 4, "ac46a6264055ab601984c1f43be131b022abd75b298245563b3d86cf9359a1b7"),
    ("it", 0.001, "dbh", 64, "280b6ab14badb61ef011c3e32cd500aedcf781304c3d86ffdb852bc7b80f7b77"),
    ("it", 0.001, "greedy", 4, "4766aafae6a080f350d160ee65b2fdb4c876f3e459ec86220cc01b9b32d4dc06"),
    ("it", 0.001, "greedy", 64, "9be06dac10acd84e081c9167d10011375a4cb8b36aca7548d268ef528dd81e63"),
    ("it", 0.001, "hdrf", 4, "c1fb911d1473cd346a75a23de242af72a3b798960e293d0b3c8b0f7cc1bdb182"),
    ("it", 0.001, "hdrf", 64, "1b38fad22978f4fc55213825430e920ae3600aaeb8b99dc02724d4b376f1c610"),
    ("it", 0.001, "mint", 4, "0420de7028182ee838ef168687eb7a5f60b1bc003460ac81290b2f3bf9f2bf4b"),
    ("it", 0.001, "mint", 64, "d50d89f15e0c07733d74d79da58b06635e9692b63e57f120bf9b5daca6423f58"),
    ("twitter", 0.001, "hashing", 4, "1c5f76f53c93d77bf313bb061cec9e03d1e6eb4012ba6317f64731f6dcc5e266"),
    ("twitter", 0.001, "hashing", 64, "05278656171af0f534c1ccd0ba8ea8e845197c946de957979faeab20a9adee45"),
    ("twitter", 0.001, "dbh", 4, "440ff2f4cab4213d100c169f3fc2dab03fe57bc71c78c6bd1461adb8ce9fcddd"),
    ("twitter", 0.001, "dbh", 64, "0ba0f1f091a363c6e84cd14149e38b63fb18dcc81c212b532652e6ada98e6a40"),
    ("twitter", 0.001, "greedy", 4, "cf39cc74b738a151f0a870eb2fd24f2f8961ae10140153d1a73558bab9fa95c5"),
    ("twitter", 0.001, "greedy", 64, "b1c5e1ce4ce2854b1658f98ddbc8f2812fb158465257c0a81e7caed6c812f2a3"),
    ("twitter", 0.001, "hdrf", 4, "94776f0a8bf847725c20ed6d503a41867252928ac3eb07b469083ef1e0f0fb19"),
    ("twitter", 0.001, "hdrf", 64, "07d7dd761ceeed5778cf1169ab20c468ee8a5b67796d41c6605193623cb371e1"),
    ("twitter", 0.001, "mint", 4, "d0a42db1d32385d1e5dbe4107fc294608e099369c767af362a04cce03e97da79"),
    ("twitter", 0.001, "mint", 64, "6369349db84b8ed3e8ccca6ec65008da4d96471c76586747c9678d3d5171d386"),
]


@pytest.mark.parametrize(
    "name,sf,algo,k,sha", BASELINE_GOLDEN, ids=[f"{a}-{n}-k{k}" for n, _, a, k, _ in BASELINE_GOLDEN]
)
def test_baseline_golden_assignment(name, sf, algo, k, sha):
    stream = ordered_stream(dataset(name, sf=sf), algo)
    assert _digest(get_partitioner(algo)(stream, k).edge_partition) == sha


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


@pytest.mark.parametrize("seed", range(40))
def test_sparse_best_response_matches_dense(seed):
    """Same moves, assignments and loads as the dense scorer, sweep by sweep,
    and between 1 and k partitions scored per best response."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        sizes, adj, ext, lam, k, assignment = _random_game(rng)
        loads = np.bincount(assignment, weights=sizes, minlength=k)
        a_dense, l_dense = assignment.copy(), loads.copy()
        a_sparse, l_sparse = assignment.copy(), loads.copy()
        order = rng.permutation(len(sizes))  # any sweep order, not only ids
        for _sweep in range(20):
            moved = _dense_best_response_pass(order, a_dense, l_dense, sizes, ext, adj, lam, k)
            moves, scored = _best_response_pass(order, a_sparse, l_sparse, sizes, ext, adj, lam, k)
            assert moves == moved
            assert a_sparse.tolist() == a_dense.tolist()
            assert l_sparse.tolist() == l_dense.tolist()
            assert len(sizes) <= scored <= len(sizes) * k
            if moved == 0:
                break
