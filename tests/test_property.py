"""Property-based tests (hypothesis): kernel invariants on arbitrary
small edge streams, not just the generator's output distribution."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clugp import clugp_partition
from repro.core.clustering import cluster_graph, stream_cluster
from repro.core.game import play_game
from repro.graphs.generators import EdgeStream
from repro.metrics.quality import partition_counts_local, quality_local
from repro.partitioners import get_partitioner


@st.composite
def edge_streams(draw, max_v=24, min_e=4, max_e=80):
    n_e = draw(st.integers(min_e, max_e))
    src = draw(
        st.lists(st.integers(0, max_v - 1), min_size=n_e, max_size=n_e)
    )
    dst = draw(
        st.lists(st.integers(0, max_v - 1), min_size=n_e, max_size=n_e)
    )
    # No self loops (the generators never emit them).
    dst = [(d + 1) % max_v if d == s else d for s, d in zip(src, dst)]
    return EdgeStream(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(edge_streams(), st.integers(1, 6), st.booleans())
def test_clustering_invariants(stream, k, splitting):
    c = stream_cluster(stream, v_max=max(1.0, stream.n_edges / k), splitting=splitting)
    seen = np.union1d(stream.src, stream.dst)
    assert (c.clu[seen] >= 0).all()
    assert c.vol.sum() == 2 * stream.n_edges
    sizes, (indptr, cols, ws) = cluster_graph(c)
    assert sizes.sum() + ws.sum() // 2 == stream.n_edges


@settings(max_examples=30, deadline=None)
@given(edge_streams(), st.integers(1, 6), st.integers(0, 3))
def test_game_invariants(stream, k, seed):
    c = stream_cluster(stream, v_max=max(1.0, stream.n_edges / k))
    sizes, adj = cluster_graph(c)
    g = play_game(sizes, adj, k, seed=seed)
    assert g.assignment.min() >= 0 and g.assignment.max() < k
    assert np.allclose(g.loads, np.bincount(g.assignment, weights=sizes, minlength=k))


@settings(max_examples=30, deadline=None)
@given(edge_streams(), st.integers(1, 6))
def test_clugp_end_to_end_invariants(stream, k):
    res = clugp_partition(stream, k)
    assert len(res.edge_partition) == stream.n_edges
    assert res.edge_partition.min() >= 0 and res.edge_partition.max() < k
    loads = np.bincount(res.edge_partition, minlength=k)
    # τ=1 cap: no partition exceeds ceil(|E|/k).
    assert loads.max() <= int(np.ceil(stream.n_edges / k))


@settings(max_examples=30, deadline=None)
@given(edge_streams(), st.sampled_from(["hashing", "dbh", "greedy", "hdrf", "mint"]))
def test_baselines_cover_and_bound(stream, algo):
    res = get_partitioner(algo)(stream, 4)
    assert len(res.edge_partition) == stream.n_edges
    q = quality_local(stream, res.edge_partition, 4)
    assert 1.0 <= q["replication_factor"] <= 4.0


@settings(max_examples=25, deadline=None)
@given(edge_streams())
def test_rf_invariant_under_relabeling(stream):
    """RF is invariant under any permutation of partition ids."""
    res = get_partitioner("hdrf")(stream, 4)
    q1 = quality_local(stream, res.edge_partition, 4)
    perm = np.array([2, 3, 0, 1])
    q2 = quality_local(stream, perm[res.edge_partition], 4)
    assert q1["replication_factor"] == q2["replication_factor"]
    assert q1["relative_balance"] == q2["relative_balance"]


@st.composite
def assignments(draw, max_e=40):
    """(stream, edge_partition, k): ids up to 2⁶², possibly empty, k up to
    past |E|, partition ids drawn at random from [0, k)."""
    ids = draw(st.lists(st.integers(0, 2**62), min_size=1, max_size=12, unique=True))
    n_e = draw(st.integers(0, max_e))
    src = draw(st.lists(st.sampled_from(ids), min_size=n_e, max_size=n_e))
    dst = draw(st.lists(st.sampled_from(ids), min_size=n_e, max_size=n_e))
    k = draw(st.integers(1, max_e + 8))
    parts = draw(st.lists(st.integers(0, k - 1), min_size=n_e, max_size=n_e))
    stream = EdgeStream(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))
    return stream, np.array(parts, dtype=np.int64), k


@settings(max_examples=60, deadline=None)
@given(assignments())
def test_partition_counts_local_matches_sets(case):
    """(edges, copies, masters) per partition == a brute-force set count."""
    stream, parts, k = case
    copies = {
        (v, p) for s, d, p in zip(stream.src.tolist(), stream.dst.tolist(), parts.tolist())
        for v in (s, d)
    }
    masters: dict[int, int] = {}
    for v, p in copies:
        masters[v] = min(masters.get(v, p), p)
    ref = np.zeros((3, k), dtype=np.int64)
    for p in parts.tolist():
        ref[0, p] += 1
    for _, p in copies:
        ref[1, p] += 1
    for p in masters.values():
        ref[2, p] += 1
    got = partition_counts_local(stream, parts, k)
    assert got.shape == (3, k) and got.dtype == np.int64
    assert np.array_equal(got, ref)
