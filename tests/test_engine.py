"""Tests for the GAS engine substrate: layout accounting, PageRank,
connected components, and the cost model."""
import math
import re
import uuid

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.engine import release_checkpoints
from repro.engine.cc import cc_reference, cc_round, connected_components, undirected_edges
from repro.engine.costmodel import CostModel, SimulatedRun, simulate
from repro.engine.gas import GraphLayout, layout, layout_local
from repro.engine.pagerank import pagerank, pagerank_reference, superstep, weighted_edges
from repro.graphs.generators import EdgeStream, dataset
from repro.metrics.quality import assignment_df, partition_counts
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


def _persistent_rdds(spark) -> set[int]:
    return set(spark.sparkContext._jsc.getPersistentRDDs().keySet())


def _jobs_and_stages(spark, fn):
    """``fn()``, and the Spark jobs and stages it ran, counted under a job
    group as perfbench counts them."""
    sc = spark.sparkContext
    group = f"test-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    return out, len(jobs), len({s for j in jobs for s in tracker.getJobInfo(j).stageIds})


def _operators(df) -> list[str]:
    """The operators of ``df``'s executed plan, one line each, without the
    tree drawing and the whole-stage-codegen marker ``*(n)``."""
    lines = df._jdf.queryExecution().executedPlan().toString().splitlines()
    return [re.sub(r"^[ :+-]*(\*\(\d+\) )?", "", line) for line in lines]


def _exchanges(df) -> list[str]:
    """The ``Exchange`` operators of ``df``'s executed plan."""
    return [op for op in _operators(df) if op.startswith("Exchange")]


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
    for iterations in (0, 5, 20):
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


def test_engine_releases_superseded_checkpoints(spark):
    """Only the returned result stays persisted: each call adds at most
    one RDD, the checkpoint behind its result."""
    stream = dataset("uk", sf=0.002)
    assign = _assign(spark, stream)
    before = _persistent_rdds(spark)
    ranks = pagerank(assign, iterations=10)
    added = _persistent_rdds(spark) - before
    assert added == {ranks._jdf.logicalPlan().rdd().id()}
    before = _persistent_rdds(spark)
    _, rounds = connected_components(assign)
    assert rounds > 1
    assert len(_persistent_rdds(spark) - before) <= 1


def test_pagerank_runs_in_a_constant_number_of_jobs(spark):
    """One job counts the vertices, one runs every superstep; each
    superstep adds one stage, i.e. one exchange."""
    assign = _assign(spark, dataset("uk", sf=0.002))
    _, few_jobs, few_stages = _jobs_and_stages(spark, lambda: pagerank(assign, iterations=2))
    _, many_jobs, many_stages = _jobs_and_stages(spark, lambda: pagerank(assign, iterations=8))
    assert few_jobs == many_jobs == 2
    assert many_stages - few_stages == 6


@pytest.mark.parametrize("length", [3, 4, 9])
def test_cc_runs_one_job_per_round(spark, length):
    """One job runs two rounds: the change count reads every second round.

    On a path of ``length`` edges the labels change for ``length`` rounds,
    and a round that changes nothing ends the loop: that is ``length + 1``
    rounds, and one more where ``length + 1`` is odd (``length`` 4)."""
    stream = EdgeStream(np.arange(length), np.arange(1, length + 1))
    assign = _assign(spark, stream)
    (labels, rounds), jobs, _ = _jobs_and_stages(spark, lambda: connected_components(assign))
    fixpoint = length + 1
    assert rounds == fixpoint + fixpoint % 2
    assert jobs == math.ceil(rounds / 2)
    ref = pd.DataFrame(cc_reference(stream), columns=["v", "component"])
    assert_equivalent(labels, "SELECT v, component FROM ref", ref=ref)


def test_relations_plan_no_sort_window_or_sort_merge_join(spark, tiny_assign):
    """The relations the Spark layers derive from the assignment plan no
    sort, window or sort-merge join; the counts take two exchanges."""
    stream, parts = tiny_assign
    assign = assignment_df(spark, stream, parts)
    for build in (partition_counts, weighted_edges, undirected_edges):
        names = {re.match(r"\w+", op).group() for op in _operators(build(assign))}
        assert not names & {"Sort", "Window", "SortMergeJoin"}, (build.__name__, names)
    assert len(_exchanges(partition_counts(assign))) <= 2


def test_pagerank_superstep_exchanges_only_partial_sums(spark, tiny_assign):
    """With the ranks read from a checkpoint, as every superstep after the
    first reads them, the one exchange is the partial sums' on ``dst``."""
    stream, parts = tiny_assign
    edges = weighted_edges(assignment_df(spark, stream, parts)).localCheckpoint()
    verts = edges.where(F.col("w") == 0.0)
    n = verts.count()
    step = superstep(n, 0.85)
    ranks = step(edges, verts.select("v", F.lit(1.0 / n).alias("rank"))).localCheckpoint()
    [exchange] = _exchanges(step(edges, ranks))
    assert exchange.startswith("Exchange hashpartitioning(dst#")
    release_checkpoints([edges, ranks])


def test_cc_round_exchanges_only_partial_minima(spark, tiny_assign):
    stream, parts = tiny_assign
    edges = undirected_edges(assignment_df(spark, stream, parts)).localCheckpoint()
    labels = cc_round(edges, edges.where("v = u").select("v", F.col("v").alias("label")))
    labels = labels.localCheckpoint()
    [exchange] = _exchanges(cc_round(edges, labels.select("v", "label")))
    assert exchange.startswith("Exchange hashpartitioning(u#")
    release_checkpoints([edges, labels])


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
    base = GraphLayout(100, 1000, 150, 125, 20)
    worse = GraphLayout(100, 1000, 300, 125, 80)
    a = simulate(base, iterations=10)
    b = simulate(worse, iterations=10)
    assert b.communication_s > a.communication_s
    assert b.messages > a.messages
    assert a.computation_s == b.computation_s  # same max partition size


def test_cost_model_rtt_additive():
    lay = GraphLayout(100, 1000, 150, 125, 20)
    no_lat = simulate(lay, iterations=10, model=CostModel(rtt=0.0))
    lat = simulate(lay, iterations=10, model=CostModel(rtt=0.05))
    # 10 iterations × 2 barriers × 50 ms
    assert lat.communication_s - no_lat.communication_s == pytest.approx(1.0)
    assert lat.computation_s == no_lat.computation_s


def test_cost_model_computation_balanced_vs_skewed():
    balanced = GraphLayout(100, 1000, 150, 125, 20)
    skewed = GraphLayout(100, 1000, 150, 500, 20)
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
