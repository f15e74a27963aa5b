"""Tests for the GAS engine substrate: layout accounting, PageRank,
connected components, and the cost model."""
import numpy as np
import pandas as pd
import pytest

from repro.engine.cc import cc_reference, connected_components
from repro.engine.costmodel import CostModel, SimulatedRun, simulate
from repro.engine.gas import GraphLayout, layout, layout_local
from repro.engine.pagerank import pagerank, pagerank_reference
from repro.graphs.generators import EdgeStream
from repro.metrics.quality import assignment_df
from repro.oracle import assert_equivalent
from repro.partitioners import get_partitioner


@pytest.fixture(scope="module")
def tiny_assign(tiny_web):
    res = get_partitioner("clugp")(tiny_web, 8)
    return tiny_web, res.edge_partition


# A self-loop on an isolated vertex, and a pair whose source also loops.
DEGENERATE = EdgeStream(np.array([0, 1, 1]), np.array([0, 2, 1]))
EMPTY = EdgeStream(np.array([], dtype=np.int64), np.array([], dtype=np.int64))


def _assign(spark, stream: EdgeStream):
    return assignment_df(spark, stream, np.zeros(stream.n_edges, dtype=np.int64))


def _plan_nodes(df) -> int:
    """Operators in the logical plan (one per line of its tree string)."""
    return len(df._jdf.queryExecution().logical().toString().splitlines())


def _cached_entries(spark) -> int:
    return spark._jsparkSession.sharedState().cacheManager().cachedData().size()


def _assert_pagerank_matches(assign, stream, iterations):
    pr = pagerank(assign, iterations=iterations)
    ref = pd.DataFrame(pagerank_reference(stream, iterations=iterations), columns=["v", "rank"])
    ref["v"] = ref["v"].astype("int64")
    assert_equivalent(pr, "SELECT v, rank FROM ref", ref=ref)


def _assert_cc_matches(assign, stream):
    labels, rounds = connected_components(assign)
    ref = pd.DataFrame(cc_reference(stream), columns=["v", "component"])
    assert rounds >= 1
    assert_equivalent(labels, "SELECT v, component FROM ref", ref=ref)


def test_layout_local_vs_spark(spark, tiny_assign):
    stream, parts = tiny_assign
    df = assignment_df(spark, stream, parts)
    a = layout(df, 8)
    b = layout_local(stream, parts, 8)
    assert a == b


def test_layout_counters(tiny_assign):
    stream, parts = tiny_assign
    lay = layout_local(stream, parts, 8)
    assert lay.n_vertices == stream.n_vertices
    assert lay.n_edges == stream.n_edges
    assert lay.n_replicas >= lay.n_vertices
    assert lay.n_mirrors == lay.n_replicas - lay.n_vertices
    assert lay.sync_messages_per_iter == 2 * lay.n_mirrors
    assert lay.max_part_edges >= stream.n_edges // 8
    assert lay.replication_factor >= 1.0


def test_layout_single_partition(tiny_web):
    parts = np.zeros(tiny_web.n_edges, dtype=np.int64)
    lay = layout_local(tiny_web, parts, 1)
    assert lay.n_mirrors == 0
    assert lay.sync_messages_per_iter == 0
    assert lay.max_part_mirror_msgs == 0


def test_pagerank_matches_reference(spark, tiny_assign):
    """Spark GAS PageRank == dense numpy power iteration (via the oracle)."""
    stream, parts = tiny_assign
    assign = assignment_df(spark, stream, parts)
    for iterations in (5, 20):
        _assert_pagerank_matches(assign, stream, iterations)


@pytest.mark.parametrize("stream", [DEGENERATE, EMPTY], ids=["degenerate", "empty"])
def test_pagerank_degenerate_graphs(spark, stream):
    _assert_pagerank_matches(_assign(spark, stream), stream, iterations=4)


@pytest.mark.parametrize("iterations", [-1, -5])
def test_pagerank_rejects_negative_iterations(spark, iterations):
    with pytest.raises(ValueError, match="iterations"):
        pagerank(_assign(spark, DEGENERATE), iterations=iterations)
    with pytest.raises(ValueError, match="iterations"):
        pagerank_reference(DEGENERATE, iterations=iterations)


@pytest.mark.parametrize("max_iters", [0, -1])
def test_cc_rejects_max_iters_below_one(spark, max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        connected_components(_assign(spark, DEGENERATE), max_iters=max_iters)


def test_pagerank_plan_does_not_grow(spark):
    """Each superstep cuts its lineage, so the plan has one size."""
    assign = _assign(spark, DEGENERATE)
    assert _plan_nodes(pagerank(assign, iterations=2)) == _plan_nodes(pagerank(assign, iterations=8))


def test_cc_plan_does_not_grow(spark):
    path = EdgeStream(np.arange(6), np.arange(1, 7))
    assign = _assign(spark, path)
    one, _ = connected_components(assign, max_iters=1)
    many, rounds = connected_components(assign)
    assert rounds > 2
    assert _plan_nodes(one) == _plan_nodes(many)


def test_engine_leaves_no_cached_dataframes(spark, tiny_assign):
    stream, parts = tiny_assign
    assign = assignment_df(spark, stream, parts)
    before = _cached_entries(spark)
    pagerank(assign, iterations=3).collect()
    labels, _ = connected_components(assign)
    labels.collect()
    assert _cached_entries(spark) == before


def test_pagerank_sums_near_one(spark, tiny_assign):
    stream, parts = tiny_assign
    pr = pagerank(assignment_df(spark, stream, parts), iterations=3).toPandas()
    # Without dangling redistribution the total leaks a little below 1.
    assert 0.5 < pr["rank"].sum() <= 1.0 + 1e-6
    assert (pr["rank"] > 0).all()


def test_pagerank_reference_deterministic(tiny_web):
    a = pagerank_reference(tiny_web, iterations=4)
    b = pagerank_reference(tiny_web, iterations=4)
    assert np.allclose(a, b)


def test_cc_matches_union_find(spark, tiny_assign):
    stream, parts = tiny_assign
    _assert_cc_matches(assignment_df(spark, stream, parts), stream)


@pytest.mark.parametrize("stream", [DEGENERATE, EMPTY], ids=["degenerate", "empty"])
def test_cc_degenerate_graphs(spark, stream):
    _assert_cc_matches(_assign(spark, stream), stream)


def test_cc_two_components(spark):
    s = EdgeStream(np.array([0, 1, 5, 6]), np.array([1, 2, 6, 7]))
    assign = assignment_df(spark, s, np.array([0, 0, 1, 1]))
    labels, _ = connected_components(assign)
    pdf = labels.toPandas().set_index("v").component
    assert pdf[0] == pdf[1] == pdf[2]
    assert pdf[5] == pdf[6] == pdf[7]
    assert pdf[0] != pdf[5]


def test_cost_model_scales_with_mirrors():
    base = GraphLayout(100, 1000, 8, 150, 125, 20)
    worse = GraphLayout(100, 1000, 8, 300, 125, 80)
    a = simulate(base, iterations=10)
    b = simulate(worse, iterations=10)
    assert b.communication_s > a.communication_s
    assert b.messages > a.messages
    assert a.computation_s == b.computation_s  # same max partition size


def test_cost_model_rtt_additive():
    lay = GraphLayout(100, 1000, 8, 150, 125, 20)
    no_lat = simulate(lay, iterations=10, model=CostModel(rtt=0.0))
    lat = simulate(lay, iterations=10, model=CostModel(rtt=0.05))
    # 10 iterations × 2 barriers × 50 ms
    assert lat.communication_s - no_lat.communication_s == pytest.approx(1.0)
    assert lat.computation_s == no_lat.computation_s


def test_cost_model_computation_balanced_vs_skewed():
    balanced = GraphLayout(100, 1000, 8, 150, 125, 20)
    skewed = GraphLayout(100, 1000, 8, 150, 500, 20)
    assert (
        simulate(skewed, iterations=1).computation_s
        == 4 * simulate(balanced, iterations=1).computation_s
    )


def test_simulated_run_total():
    r = SimulatedRun(computation_s=1.0, communication_s=2.0, messages=5)
    assert r.total_s == 3.0


def test_better_partitioning_cheaper_system(small_web):
    """The Fig 8 mechanism: lower-RF partitionings must simulate faster."""
    k = 16
    sims = {}
    for algo in ("clugp", "hashing"):
        parts = get_partitioner(algo)(small_web, k).edge_partition
        sims[algo] = simulate(layout_local(small_web, parts, k), iterations=10)
    assert sims["clugp"].communication_s < sims["hashing"].communication_s
    assert sims["clugp"].total_s < sims["hashing"].total_s
