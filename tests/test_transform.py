"""Tests for pass 3 — partition transformation (Algorithm 1)."""
import numpy as np
import pytest

from repro.core.clustering import cluster_graph, stream_cluster
from repro.core.game import play_game
from repro.core.transform import transform
from repro.graphs.generators import EdgeStream, web_graph


def _pipeline(stream, k, *, tau=1.0, splitting=True, seed=0):
    c = stream_cluster(stream, v_max=stream.n_edges / k, splitting=splitting)
    sizes, adj = cluster_graph(c)
    g = play_game(sizes, adj, k, seed=seed)
    return c, g, transform(stream, c, g.assignment, k, tau=tau)


@pytest.mark.parametrize("k", [2, 8, 32])
def test_every_edge_assigned(tiny_web, k):
    _, _, tr = _pipeline(tiny_web, k)
    assert len(tr.edge_partition) == tiny_web.n_edges
    assert tr.edge_partition.min() >= 0 and tr.edge_partition.max() < k


@pytest.mark.parametrize("tau", [1.0, 1.1, 1.5])
@pytest.mark.parametrize("k", [4, 16])
def test_tau_cap_respected(tiny_web, tau, k):
    """No partition exceeds τ|E|/k by more than the single-edge overshoot."""
    _, _, tr = _pipeline(tiny_web, k, tau=tau)
    l_max = tau * tiny_web.n_edges / k
    top = np.bincount(tr.edge_partition).max()
    assert top <= int(np.ceil(l_max))
    assert k * top / tiny_web.n_edges <= tau + k / tiny_web.n_edges


def test_invalid_tau_raises(tiny_web):
    c = stream_cluster(tiny_web, v_max=tiny_web.n_edges / 4)
    with pytest.raises(ValueError):
        transform(tiny_web, c, np.zeros(c.n_clusters, dtype=np.int64), 4, tau=0.5)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_non_finite_tau_raises(tiny_web, tau):
    """A non-finite τ would leave L_max without a cap: rejected, not run."""
    c = stream_cluster(tiny_web, v_max=tiny_web.n_edges / 4)
    with pytest.raises(ValueError, match="finite"):
        transform(tiny_web, c, np.zeros(c.n_clusters, dtype=np.int64), 4, tau=tau)


def test_same_partition_edges_stay_local():
    """When both endpoints map to the same (underfull) partition, the edge
    must land there."""
    s = EdgeStream(np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0]))
    c = stream_cluster(s, v_max=100)  # generous: everything merges
    a = np.zeros(c.n_clusters, dtype=np.int64)  # all clusters -> partition 0
    tr = transform(s, c, a, 2, tau=2.0)
    assert (tr.edge_partition == 0).all()


def test_higher_degree_endpoint_is_cut():
    """Cross-partition edge between non-divided vertices goes to the
    lower-degree endpoint's partition (the high-degree one is cut)."""
    # hub 0 (deg 3) in cluster A; leaves in cluster B; stream keeps them apart
    s = EdgeStream(np.array([0, 0, 0, 1]), np.array([2, 3, 4, 2]))
    c = stream_cluster(s, v_max=1, splitting=False)  # no merges: singletons
    # Map hub's cluster to partition 0, all others to partition 1.
    a = np.ones(c.n_clusters, dtype=np.int64)
    a[c.clu[0]] = 0
    tr = transform(s, c, a, 2, tau=2.0)
    # deg[0]=3 > deg of each leaf => edges (0,x) go to the leaf's partition 1.
    assert tr.edge_partition[0] == 1 and tr.edge_partition[1] == 1


def test_overflow_falls_back_to_underfull():
    """With τ=1 and k=2, once a partition is full edges must spill."""
    s = EdgeStream(np.arange(10), np.arange(1, 11))
    c = stream_cluster(s, v_max=1000)
    a = np.zeros(c.n_clusters, dtype=np.int64)  # everyone wants partition 0
    tr = transform(s, c, a, 2, tau=1.0)
    assert np.array_equal(np.bincount(tr.edge_partition), [5, 5])


def test_overflow_picks():
    """Alg 1 lines 6–14 at k=4, τ=1 (L_max = 2), with hand-computed picks.

    With one endpoint's partition full the edge goes to the other's, not
    to the lowest-id underfull one; with both full it goes to the lowest-id
    underfull partition, not to the least-loaded one (DESIGN.md §6).
    """
    # v_max=1 without splitting keeps every vertex in its own cluster, so
    # ``part`` places each vertex directly.
    part = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2}
    src = np.array([0, 0, 1, 2, 2, 0, 1, 4])
    dst = np.array([1, 1, 4, 3, 3, 2, 3, 5])
    s = EdgeStream(src, dst)
    c = stream_cluster(s, v_max=1, splitting=False)
    a = np.full(c.n_clusters, 3, dtype=np.int64)  # vertex 5 -> partition 3
    for v, p in part.items():
        a[c.clu[v]] = p
    tr = transform(s, c, a, 4, tau=1.0)
    # (0,1) twice fills p0; (1,4): p0 full -> p2, loads [2,0,1,0];
    # (2,3) twice fills p1; (0,2): p0, p1 full -> p2, the lowest-id
    # underfull, over the lighter p3; (1,3) -> p3; (4,5): p2 full -> p3.
    assert tr.edge_partition.tolist() == [0, 0, 2, 1, 1, 2, 3, 3]


@pytest.mark.parametrize("splitting", [True, False])
def test_balance_is_one_at_default_tau(small_web, splitting):
    """§VI 'Load balance': all algorithms achieve relative balance ≈ 1.0."""
    _, _, tr = _pipeline(small_web, 16, splitting=splitting)
    n = small_web.n_edges
    assert 16 * np.bincount(tr.edge_partition).max() / n <= 1.0 + 16 / n


def test_divided_vertex_reuses_mirror_partition():
    """An edge whose divided endpoint has a mirror in the other endpoint's
    partition must be placed there (zero new replicas)."""
    g = web_graph(sf=0.01, seed=2)
    c = stream_cluster(g, v_max=g.n_edges / 256, splitting=True)
    assert c.n_mirrors > 0  # precondition: splits fired
    sizes, adj = cluster_graph(c)
    gm = play_game(sizes, adj, 256, seed=0)
    # τ=30 disables the capacity spill path so the mirror rule is isolated
    # (l_max ≈ 3500 > any partition's total load at this scale).
    tr = transform(g, c, gm.assignment, 256, tau=30.0)
    a = gm.assignment
    # Find a stream edge whose src is divided with a mirror in dst's partition.
    checked = 0
    for i, (u, v) in enumerate(zip(g.src.tolist(), g.dst.tolist())):
        if c.divided[u] and not c.divided[v] and checked < 50:
            p_v = int(a[c.edge_cv[i]])
            p_u = int(a[c.edge_cu[i]])
            mirrors = {int(a[cl]) for cl in c.mirror_clusters[u]}
            if p_v in mirrors and p_u != p_v:
                assert tr.edge_partition[i] == p_v
                checked += 1
    assert checked > 0


def test_deterministic(tiny_web):
    _, _, a = _pipeline(tiny_web, 8)
    _, _, b = _pipeline(tiny_web, 8)
    assert np.array_equal(a.edge_partition, b.edge_partition)


# Pass 3 on the ``split_heavy`` stream (every vertex divided), recorded before
# its loop moved out of Python.  At k=3, τ=1 the overflow rule takes each
# of its three picks and two edges between divided vertices with no shared
# mirror partition go to the lighter endpoint partition; at k=2, τ=1.5
# the mirror-reuse picks of either endpoint fire.
@pytest.mark.parametrize("k,tau,a,want", [
    (3, 1.0, [0, 0, 0, 0, 0, 2, 0, 0, 1], [0, 0, 0, 0, 0, 2, 2, 1, 1, 2, 1, 1, 1, 2]),
    (2, 1.5, [0, 1, 0, 1, 0, 1, 0, 1, 0], [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0]),
], ids=["k3", "k2"])
def test_split_heavy_stream_pinned(split_heavy, k, tau, a, want):
    c = stream_cluster(split_heavy, v_max=10.0)
    tr = transform(split_heavy, c, np.array(a, dtype=np.int64), k, tau=tau)
    assert tr.edge_partition.tolist() == want


@pytest.mark.parametrize("bad", [-1, 4])
def test_partition_outside_range_raises(tiny_web, bad):
    """A cluster mapped outside [0, k) would emit (or index) a partition
    that does not exist."""
    c = stream_cluster(tiny_web, v_max=tiny_web.n_edges / 4)
    a = np.zeros(c.n_clusters, dtype=np.int64)
    a[c.edge_cu[0]] = bad
    with pytest.raises(ValueError, match="cluster partition"):
        transform(tiny_web, c, a, 4)


def test_short_cluster_partition_raises(tiny_web):
    c = stream_cluster(tiny_web, v_max=tiny_web.n_edges / 4)
    with pytest.raises(ValueError, match="clusters"):
        transform(tiny_web, c, np.zeros(c.n_clusters - 1, dtype=np.int64), 4)
