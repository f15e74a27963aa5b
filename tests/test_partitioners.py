"""Tests for the vertex-cut streaming partitioners (Table I registry)."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.harness import ordered_stream
from repro.graphs.generators import EdgeStream
from repro.metrics.quality import quality_local
from repro.partitioners import all_partitioners, get_partitioner, partition_spark
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
    assert res.space_bytes == 8 * tiny_web.n_vertices


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


def test_greedy_rules_2_to_4():
    """Rules 2–4 on a hand-built stream, k = 4: the least-loaded partition
    of P(u) ∪ P(v), or of all partitions when both are unplaced; a load
    tie goes to the lowest partition id."""
    s = EdgeStream(np.array([0, 2, 4, 6, 8, 2, 0, 1, 0, 6]), np.array([1, 3, 5, 7, 6, 9, 4, 6, 3, 10]))
    p = get_partitioner("greedy")(s, 4).edge_partition.tolist()
    # Rule 4, neither placed: the global argmin of [0,0,0,0], [1,0,0,0],
    # [1,1,0,0] (ties to the lowest id) and [1,1,1,0].
    assert p[:4] == [0, 1, 2, 3]
    # Rule 3, one placed: P(6) = {3} at loads [1,1,1,1] and P(2) = {1} at
    # [1,1,1,2], where the global argmin is 0 both times.
    assert p[4:6] == [3, 1]
    # Rule 2, both placed and disjoint: {0} ∪ {2} at [1,2,1,2] ties → 0;
    # {0} ∪ {3} at [2,2,1,2] ties → 0 over the global argmin 2; {0} ∪ {1}
    # at [3,2,1,2] → 1, neither the union's lowest id nor the global argmin.
    assert p[6:9] == [0, 0, 1]
    # Rule 3 with two candidates: P(6) = {0,3} at [3,3,1,2] → 3.
    assert p[9] == 3


def test_mint_window_state_bounded(small_web):
    res = get_partitioner("mint")(small_web, 8, window=512)
    assert res.space_bytes <= 8 * 8 * 2 * 512 + 64


def test_clugp_phases_reported(tiny_web):
    res = get_partitioner("clugp")(tiny_web, 8)
    ph = res.extra["phase_seconds"]
    assert set(ph) == {"clustering", "game", "transform"}
    assert all(v >= 0 for v in ph.values())
    assert res.extra["n_clusters"] > 0
    assert 0 < res.extra["candidate_scores"] <= res.extra["score_ops"]


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


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("algo", all_partitioners())
def test_k_below_one_rejected(tiny_web, algo, k):
    with pytest.raises(ValueError, match="k must be ≥ 1"):
        get_partitioner(algo)(tiny_web, k)


@pytest.mark.parametrize("k", [0, -1])
def test_partition_spark_rejects_k_below_one(spark, tiny_web, k):
    """Raised on the driver, before a plan is built, not in a worker."""
    with pytest.raises(ValueError, match="k must be ≥ 1"):
        partition_spark(tiny_web.to_spark(spark), "clugp", k, n_nodes=2)


@pytest.mark.parametrize("n_nodes", [0, -1])
def test_partition_spark_rejects_n_nodes_below_one(spark, tiny_web, n_nodes):
    """Raised here, not by the JVM's "Number of partitions" requirement."""
    with pytest.raises(ValueError, match="n_nodes must be ≥ 1"):
        partition_spark(tiny_web.to_spark(spark), "clugp", 4, n_nodes=n_nodes)


#: Every algorithm whose assignment depends only on which endpoints are
#: equal, not on the id values (Hashing and DBH hash the ids).
ID_BLIND = ["clugp", "clugp_s", "clugp_g", "hdrf", "greedy", "mint"]


@pytest.mark.parametrize("relabel", ["times_2_40", "negative"])
@pytest.mark.parametrize("algo", ID_BLIND)
def test_sparse_and_negative_ids_match_dense(tiny_web, algo, relabel):
    """Kernels index their state by the densified ids: ids×2⁴⁰ or shifted
    to −200..199 give the dense run's assignment and state size."""
    f = (lambda v: v * 2**40) if relabel == "times_2_40" else (lambda v: v - 200)
    relabelled = EdgeStream(f(tiny_web.src), f(tiny_web.dst))
    dense = get_partitioner(algo)(tiny_web, 32)
    res = get_partitioner(algo)(relabelled, 32)
    assert np.array_equal(res.edge_partition, dense.edge_partition)
    assert res.space_bytes == dense.space_bytes


@pytest.mark.parametrize("first", ["repro.core.clugp", "repro.partitioners"])
def test_import_order(first):
    """``core.clugp`` and ``partitioners`` import each other; either may
    be imported first, in a fresh interpreter, and all 8 names register."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = (
        f"import {first}\n"
        "from repro.partitioners import all_partitioners\n"
        "print(','.join(all_partitioners()))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().split(",") == sorted(ALGOS)
