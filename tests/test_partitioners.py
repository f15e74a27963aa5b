"""Tests for the vertex-cut streaming partitioners (Table I registry)."""
import numpy as np
import pytest

from repro.experiments.harness import ordered_stream
from repro.graphs.generators import EdgeStream
from repro.metrics.quality import quality_local
from repro.partitioners import all_partitioners, get_partitioner
from repro.partitioners.base import PartitionResult

ALGOS = ["hashing", "dbh", "greedy", "hdrf", "mint", "clugp", "clugp_s", "clugp_g"]


def test_registry_complete():
    assert set(ALGOS) <= set(all_partitioners())


def test_unknown_partitioner_raises():
    with pytest.raises(KeyError):
        get_partitioner("metis")


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("k", [2, 8, 32])
def test_full_edge_coverage(tiny_web, algo, k):
    res = get_partitioner(algo)(tiny_web, k)
    assert isinstance(res, PartitionResult)
    assert len(res.edge_partition) == tiny_web.n_edges
    assert res.edge_partition.min() >= 0
    assert res.edge_partition.max() < k


@pytest.mark.parametrize("algo", ALGOS)
def test_deterministic(tiny_web, algo):
    a = get_partitioner(algo)(tiny_web, 8)
    b = get_partitioner(algo)(tiny_web, 8)
    assert np.array_equal(a.edge_partition, b.edge_partition)


@pytest.mark.parametrize("algo", ALGOS)
def test_seconds_and_space_reported(tiny_web, algo):
    res = get_partitioner(algo)(tiny_web, 8)
    assert res.seconds > 0
    assert res.space_bytes >= 0


@pytest.mark.parametrize(
    "algo,limit",
    [("greedy", 1.15), ("hdrf", 1.15), ("mint", 1.5), ("clugp", 1.15),
     ("clugp_s", 1.15), ("clugp_g", 1.15)],
)
def test_balance_near_one(tiny_web, algo, limit):
    """Balance-aware algorithms keep relative balance close to 1 (§VI),
    each in its best stream order; Mint's window-local cap is looser at
    tiny scale (|E| barely exceeds one window)."""
    st = ordered_stream(tiny_web, algo)
    res = get_partitioner(algo)(st, 8)
    q = quality_local(st, res.edge_partition, 8)
    assert q["relative_balance"] <= limit


@pytest.mark.parametrize("algo", ALGOS)
def test_all_partitions_used(tiny_web, algo):
    st = ordered_stream(tiny_web, algo)
    res = get_partitioner(algo)(st, 4)
    assert len(np.unique(res.edge_partition)) == 4


def test_hashing_uses_no_state(tiny_web):
    assert get_partitioner("hashing")(tiny_web, 8).space_bytes == 0


def test_dbh_space_is_degree_array(tiny_web):
    res = get_partitioner("dbh")(tiny_web, 8)
    n = int(max(tiny_web.src.max(), tiny_web.dst.max())) + 1
    assert res.space_bytes == 8 * n


def test_heuristic_space_scales_with_replicas(tiny_web):
    for algo in ("greedy", "hdrf"):
        res = get_partitioner(algo)(tiny_web, 8)
        assert res.extra["replica_entries"] > tiny_web.n_vertices
        assert res.space_bytes > 16 * tiny_web.n_vertices


def test_hdrf_beats_hashing_on_quality(small_web):
    st = small_web.shuffled(seed=1)
    rf = {
        a: quality_local(st, get_partitioner(a)(st, 16).edge_partition, 16)[
            "replication_factor"
        ]
        for a in ("hdrf", "hashing")
    }
    assert rf["hdrf"] < 0.8 * rf["hashing"]


def test_dbh_beats_hashing_on_quality(small_web):
    st = small_web.shuffled(seed=1)
    rf = {
        a: quality_local(st, get_partitioner(a)(st, 16).edge_partition, 16)[
            "replication_factor"
        ]
        for a in ("dbh", "hashing")
    }
    assert rf["dbh"] < rf["hashing"]


def test_dbh_cuts_high_degree_vertices(small_web):
    """High-degree vertices should have more replicas than low-degree ones."""
    st = small_web.shuffled(seed=1)
    res = get_partitioner("dbh")(st, 16)
    deg = st.degrees()
    parts_per_v = {}
    for u, v, p in zip(st.src.tolist(), st.dst.tolist(), res.edge_partition.tolist()):
        parts_per_v.setdefault(u, set()).add(p)
        parts_per_v.setdefault(v, set()).add(p)
    hubs = np.argsort(deg)[-20:]
    low_cut = np.quantile(deg[deg > 0], 0.25)
    leaves = [v for v in parts_per_v if deg[v] <= low_cut][:200]
    hub_rf = np.mean([len(parts_per_v[int(h)]) for h in hubs if int(h) in parts_per_v])
    leaf_rf = np.mean([len(parts_per_v[v]) for v in leaves])
    assert len(leaves) > 0
    assert hub_rf > 1.5 * leaf_rf


def test_greedy_colocates_shared_partition():
    """Rule 1: an edge between vertices sharing a partition stays there."""
    from repro.graphs.generators import EdgeStream

    s = EdgeStream(np.array([0, 0, 1, 0]), np.array([1, 2, 2, 1]))
    res = get_partitioner("greedy")(s, 4)
    p = res.edge_partition
    assert p[3] == p[0]  # second (0,1) edge joins the first's partition


def test_mint_window_state_bounded(small_web):
    res = get_partitioner("mint")(small_web, 8, window=512)
    assert res.space_bytes <= 8 * 8 * 2 * 512 + 64


def test_clugp_phases_reported(tiny_web):
    res = get_partitioner("clugp")(tiny_web, 8)
    ph = res.extra["phase_seconds"]
    assert set(ph) == {"clustering", "game", "transform"}
    assert all(v >= 0 for v in ph.values())
    assert res.extra["n_clusters"] > 0


def test_clugp_g_skips_game(tiny_web):
    res = get_partitioner("clugp_g")(tiny_web, 8)
    assert res.extra["game_rounds"] == 1  # greedy one-shot assignment


def test_clugp_s_no_mirrors(tiny_web):
    res = get_partitioner("clugp_s")(tiny_web, 8)
    assert res.extra["clustering_rf"] == 1.0


@pytest.mark.parametrize("algo", ALGOS)
def test_score_ops_reported(tiny_web, algo):
    res = get_partitioner(algo)(tiny_web, 8)
    assert "score_ops" in res.extra
    assert res.extra["score_ops"] >= 0


def test_score_ops_ordering(small_web):
    """The Table-I cost hierarchy: hashing < dbh < clugp ≪ hdrf ≈ greedy."""
    k = 64
    ops = {
        a: get_partitioner(a)(ordered_stream(small_web, a), k).extra["score_ops"]
        for a in ("hashing", "dbh", "clugp", "hdrf", "greedy")
    }
    assert ops["hashing"] <= ops["dbh"] <= ops["clugp"]
    assert ops["clugp"] < ops["hdrf"] / 2
    assert ops["hdrf"] == ops["greedy"] == small_web.n_edges * k


@pytest.mark.parametrize("algo", all_partitioners())
def test_empty_stream_gives_empty_assignment(algo):
    empty = EdgeStream(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    res = get_partitioner(algo)(empty, 4)
    assert len(res.edge_partition) == 0
