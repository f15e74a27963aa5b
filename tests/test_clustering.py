"""Tests for pass 1 — streaming clustering (Algorithm 2)."""
import numpy as np
import pytest

from repro.core.clustering import cluster_graph, stream_cluster
from repro.graphs.generators import EdgeStream, web_graph


def _chain(n):
    """0-1, 1-2, ..., BFS-ordered chain."""
    return EdgeStream(np.arange(n - 1), np.arange(1, n))


@pytest.mark.parametrize("splitting", [True, False])
def test_every_seen_vertex_clustered(tiny_web, splitting):
    c = stream_cluster(tiny_web, v_max=tiny_web.n_edges / 8, splitting=splitting)
    seen = np.union1d(tiny_web.src, tiny_web.dst)
    assert (c.clu[seen] >= 0).all()


@pytest.mark.parametrize("splitting", [True, False])
def test_unseen_vertices_unclustered(splitting):
    s = EdgeStream(np.array([0, 0]), np.array([2, 3]))  # vertex 1 never appears
    c = stream_cluster(s, v_max=10, splitting=splitting)
    assert c.clu[1] == -1 and c.deg[1] == 0


@pytest.mark.parametrize("splitting", [True, False])
def test_degrees_counted_from_stream(tiny_web, splitting):
    c = stream_cluster(tiny_web, v_max=1e9, splitting=splitting)
    expect = tiny_web.degrees()
    assert np.array_equal(c.deg[: len(expect)], expect)


@pytest.mark.parametrize("splitting", [True, False])
def test_volume_conservation(tiny_web, splitting):
    """Σ vol over clusters = Σ deg over vertices (volume is moved, not lost)."""
    c = stream_cluster(tiny_web, v_max=tiny_web.n_edges / 16, splitting=splitting)
    assert c.vol.sum() == c.deg.sum() == 2 * tiny_web.n_edges


@pytest.mark.parametrize("splitting", [True, False])
def test_volume_matches_membership(tiny_web, splitting):
    """vol(c) = Σ deg of *current members* + residue of departed mirrors ≥ 0
    only for live clusters; for every cluster the recomputed member sum
    matches vol up to mirror residues, and exactly with v_max=∞ (no splits,
    no blocked migrations)."""
    c = stream_cluster(tiny_web, v_max=1e18, splitting=splitting)
    member_vol = np.zeros(c.n_clusters, dtype=np.int64)
    seen = np.union1d(tiny_web.src, tiny_web.dst)
    np.add.at(member_vol, c.clu[seen], c.deg[seen])
    assert np.array_equal(member_vol, c.vol)


def test_holl_produces_no_mirrors(tiny_web):
    c = stream_cluster(tiny_web, v_max=tiny_web.n_edges / 8, splitting=False)
    assert c.n_mirrors == 0
    assert not c.divided.any()
    assert c.clustering_rf() == 1.0


def test_splitting_produces_mirrors_under_pressure():
    """With small V_max and a BFS chain + hub pattern, splits must fire."""
    g = web_graph(sf=0.01, seed=2)
    c = stream_cluster(g, v_max=g.n_edges / 256, splitting=True)
    assert c.n_mirrors > 0
    assert c.divided.any()
    assert c.clustering_rf() > 1.0


def test_divided_vertices_have_mirror_clusters():
    g = web_graph(sf=0.01, seed=2)
    c = stream_cluster(g, v_max=g.n_edges / 256, splitting=True)
    div = set(np.flatnonzero(c.divided).tolist())
    assert div == set(c.mirror_clusters)
    for v, clusters in c.mirror_clusters.items():
        assert len(clusters) >= 1
        # Mirror entries reference real clusters (a vertex may later
        # migrate back into a cluster holding its mirror, so membership
        # overlap with clu[v] is allowed).
        assert all(0 <= cl < c.n_clusters for cl in clusters)


def test_mirror_count_consistency():
    """A mirror is a distinct (v, c) pair away from v's final cluster."""
    g = web_graph(sf=0.01, seed=2)
    c = stream_cluster(g, v_max=g.n_edges / 256, splitting=True)
    pairs = {(v, cl) for v, cls in c.mirror_clusters.items() for cl in cls if cl != c.clu[v]}
    assert c.n_mirrors == len(pairs)


@pytest.mark.parametrize("splitting", [True, False])
def test_edge_cluster_records_complete(tiny_web, splitting):
    c = stream_cluster(tiny_web, v_max=tiny_web.n_edges / 8, splitting=splitting)
    assert len(c.edge_cu) == tiny_web.n_edges
    assert (c.edge_cu >= 0).all() and (c.edge_cv >= 0).all()
    assert c.edge_cu.max() < c.n_clusters and c.edge_cv.max() < c.n_clusters


def test_chain_clusters_are_contiguous():
    """A chain with generous V_max collapses into few contiguous clusters."""
    c = stream_cluster(_chain(100), v_max=50, splitting=True)
    seen = np.arange(100)
    # Consecutive vertices mostly share clusters (migration merges pairs).
    same = (c.clu[seen[:-1]] == c.clu[seen[1:]]).mean()
    assert same > 0.5


def test_vmax_one_keeps_singletons():
    """V_max=1 blocks all merges: every vertex stays in its own cluster."""
    c = stream_cluster(_chain(10), v_max=1, splitting=False)
    seen = np.arange(10)
    assert len(np.unique(c.clu[seen])) == 10


def test_invalid_vmax_raises(tiny_web):
    with pytest.raises(ValueError):
        stream_cluster(tiny_web, v_max=0)


def test_cluster_graph_edge_conservation(tiny_web):
    c = stream_cluster(tiny_web, v_max=tiny_web.n_edges / 8)
    sizes, (indptr, cols, ws) = cluster_graph(c)
    assert sizes.sum() + ws.sum() // 2 == tiny_web.n_edges


def test_cluster_graph_symmetry(tiny_web):
    c = stream_cluster(tiny_web, v_max=tiny_web.n_edges / 8)
    _, (indptr, cols, ws) = cluster_graph(c)
    m = len(indptr) - 1
    w = {}
    for i in range(m):
        for j, wt in zip(cols[indptr[i]:indptr[i + 1]], ws[indptr[i]:indptr[i + 1]]):
            w[(i, int(j))] = w.get((i, int(j)), 0) + int(wt)
    for (i, j), wt in w.items():
        assert w.get((j, i)) == wt


def test_cluster_graph_no_self_edges(tiny_web):
    c = stream_cluster(tiny_web, v_max=tiny_web.n_edges / 8)
    _, (indptr, cols, ws) = cluster_graph(c)
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    assert not np.any(rows == cols)


def test_space_bytes_is_o_v(tiny_web):
    c = stream_cluster(tiny_web, v_max=tiny_web.n_edges / 8)
    n = len(c.clu)
    assert c.space_bytes() >= 16 * n  # clu + deg at 8B each
    assert c.space_bytes() < 64 * (n + c.n_clusters)


@pytest.mark.parametrize("k", [4, 16, 64])
def test_deterministic_given_stream(tiny_web, k):
    a = stream_cluster(tiny_web, v_max=tiny_web.n_edges / k)
    b = stream_cluster(tiny_web, v_max=tiny_web.n_edges / k)
    assert np.array_equal(a.clu, b.clu)
    assert np.array_equal(a.edge_cu, b.edge_cu)


# A hand-made stream with what the generators never emit: self-loops
# ((1,1), (2,2), (0,0), ...) and repeated edges ((0,1) twice, (0,3)/(3,0),
# (5,6)/(6,5)).  Hubs 0 and 5 push clusters over V_max, so splitting (one
# of them on the self-loop (2,2)), both of its guards and migration fire.
_LOOPY = [(0, 1), (1, 1), (0, 1), (0, 2), (2, 2), (0, 3), (3, 0), (0, 0), (4, 0),
          (1, 2), (5, 5), (5, 6), (6, 5), (0, 5), (7, 5), (5, 8), (8, 8), (0, 7),
          (9, 0), (9, 9), (3, 4), (5, 9), (10, 10), (10, 0), (5, 10), (11, 5), (0, 11), (2, 1)]

# Pass 1's state on ``_LOOPY``, recorded before its per-edge loop was
# tightened: a rewrite of the loop must reproduce it exactly.
_LOOPY_PINNED = {
    (3.0, True): dict(
        clu=[2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        deg=[13, 6, 5, 3, 2, 10, 2, 2, 3, 4, 4, 2],
        vol=[0, 6, 13, 5, 3, 2, 10, 2, 2, 3, 4, 4, 2],
        edge_cu=[1, 1, 2, 2, 3, 2, 4, 2, 5, 1, 6, 6, 7, 2, 8, 6, 9, 2, 10, 10, 4, 6, 11, 11, 6, 12, 2, 3],
        edge_cv=[1, 1, 1, 3, 3, 4, 2, 2, 2, 3, 6, 7, 6, 6, 6, 9, 9, 8, 2, 10, 5, 10, 11, 2, 11, 6, 12, 1],
        mirror_clusters={0: [1]},
        n_mirrors=1,
    ),
    (6.0, True): dict(
        clu=[4, 1, 5, 7, 7, 12, 9, 13, 14, 15, 16, 17],
        deg=[13, 6, 5, 3, 2, 10, 2, 2, 3, 4, 4, 2],
        vol=[0, 6, 0, 0, 13, 5, 0, 5, 0, 2, 0, 0, 10, 2, 3, 4, 4, 2],
        edge_cu=[1, 1, 1, 4, 5, 4, 7, 4, 8, 1, 9, 9, 9, 4, 13, 12, 14, 4, 15, 15, 7, 12, 16, 16, 12, 17, 4, 5],
        edge_cv=[1, 1, 1, 4, 5, 4, 4, 4, 4, 5, 9, 9, 9, 12, 12, 14, 14, 13, 4, 15, 7, 15, 16, 4, 16, 12, 17, 1],
        mirror_clusters={0: [1, 1], 2: [4], 3: [4], 6: [9], 5: [9]},
        # 0 lists cluster 1 twice and 6 lists its own cluster 9: 4 mirrors.
        n_mirrors=4,
    ),
    (6.0, False): dict(
        clu=[1, 1, 2, 3, 3, 5, 5, 7, 8, 9, 10, 11],
        deg=[13, 6, 5, 3, 2, 10, 2, 2, 3, 4, 4, 2],
        vol=[0, 19, 5, 5, 0, 12, 0, 2, 3, 4, 4, 2],
        edge_cu=[1, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 5, 5, 1, 7, 5, 8, 1, 9, 9, 3, 5, 10, 10, 5, 11, 1, 2],
        edge_cv=[1, 1, 1, 2, 2, 3, 1, 1, 1, 2, 5, 5, 5, 5, 5, 8, 8, 7, 1, 9, 3, 9, 10, 1, 10, 5, 11, 1],
        mirror_clusters={},
        n_mirrors=0,
    ),
}


@pytest.mark.parametrize("v_max,splitting", list(_LOOPY_PINNED), ids=str)
def test_self_loops_and_repeated_edges_pinned(v_max, splitting):
    s = EdgeStream(np.array([u for u, _ in _LOOPY]), np.array([v for _, v in _LOOPY]))
    c = stream_cluster(s, v_max=v_max, splitting=splitting)
    want = _LOOPY_PINNED[(v_max, splitting)]
    for field in ("clu", "deg", "vol", "edge_cu", "edge_cv"):
        assert getattr(c, field).tolist() == want[field], field
    assert c.mirror_clusters == want["mirror_clusters"]
    assert c.n_mirrors == want["n_mirrors"]
    assert c.n_clusters == len(want["vol"])
    assert sorted(np.flatnonzero(c.divided).tolist()) == sorted(want["mirror_clusters"])


# Pass 1's state on the ``split_heavy`` stream, recorded before its loop
# moved out of Python.
_SPLIT_HEAVY_PINNED = dict(
    clu=[1, 5, 8],
    deg=[7, 12, 9],
    vol=[0, 7, 0, 0, 0, 12, 0, 0, 9],
    edge_cu=[1, 1, 1, 1, 1, 5, 5, 1, 8, 5, 5, 8, 1, 8],
    edge_cv=[1, 1, 1, 1, 1, 5, 5, 1, 1, 5, 8, 5, 1, 5],
    mirror_clusters={2: [1, 1], 0: [1, 5, 5], 1: [1]},
    n_mirrors=3,
)


def test_splits_outnumber_vertices_pinned(split_heavy):
    c = stream_cluster(split_heavy, v_max=10.0)
    want = _SPLIT_HEAVY_PINNED
    for field in ("clu", "deg", "vol", "edge_cu", "edge_cv"):
        assert getattr(c, field).tolist() == want[field], field
    assert c.mirror_clusters == want["mirror_clusters"]
    # Dict order is first-split order.
    assert list(c.mirror_clusters) == list(want["mirror_clusters"])
    assert sum(map(len, c.mirror_clusters.values())) > len(c.clu)
    assert c.n_mirrors == want["n_mirrors"]


def test_negative_id_raises():
    """A negative id would alias another vertex's state (-1 is the last)."""
    with pytest.raises(ValueError, match="vertex id"):
        stream_cluster(EdgeStream(np.array([0, 1, -1]), np.array([1, 2, 0])), v_max=10)
