"""Tests for the Spark lift of the partitioners: distributed CLUGP
(``n_nodes > 1``) and the one-machine lift of every registered kernel."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.clugp import clugp_partition
from repro.graphs.generators import EdgeStream
from repro.metrics.quality import quality, quality_local
from repro.partitioners import all_partitioners, get_partitioner, partition_spark


@pytest.fixture(scope="module")
def edges_df(spark, tiny_web):
    return tiny_web.to_spark(spark).cache()


@pytest.mark.parametrize("n_nodes", [1, 2, 4])
def test_spark_pipeline_covers_all_edges(spark, tiny_web, edges_df, n_nodes):
    out = partition_spark(edges_df, "clugp", 8, n_nodes=n_nodes)
    assert out.count() == tiny_web.n_edges
    assert set(out.columns) == {"pos", "src", "dst", "partition"}
    mm = out.agg(F.min("partition"), F.max("partition")).collect()[0]
    assert mm[0] >= 0 and mm[1] < 8


def test_spark_single_node_matches_sequential(spark, tiny_web, edges_df):
    """n_nodes=1 must reproduce the driver-side kernel bit-for-bit."""
    seq = clugp_partition(tiny_web, 8)
    dist = (
        partition_spark(edges_df, "clugp", 8, n_nodes=1)
        .orderBy("pos")
        .select("partition")
        .toPandas()["partition"]
        .to_numpy()
    )
    assert np.array_equal(dist, seq.edge_partition)


def test_spark_multi_node_quality_reasonable(spark, tiny_web, edges_df):
    """Distributed partitioning stays balanced and within ~2× of the
    sequential pipeline's RF (each node only sees a substream)."""
    seq = clugp_partition(tiny_web, 8)
    q_seq = quality_local(tiny_web, seq.edge_partition, 8)
    out = partition_spark(edges_df, "clugp", 8, n_nodes=4)
    q_dist = quality(out, 8)
    assert q_dist["relative_balance"] <= 1.25
    assert q_dist["replication_factor"] <= 2.0 * q_seq["replication_factor"]


def test_spark_preserves_edge_identity(spark, edges_df, tiny_web):
    out = partition_spark(edges_df, "clugp", 4, n_nodes=2).orderBy("pos").toPandas()
    assert np.array_equal(out["src"].to_numpy(), tiny_web.src)
    assert np.array_equal(out["dst"].to_numpy(), tiny_web.dst)


@pytest.mark.parametrize("algo", all_partitioners())
def test_partition_spark_lift(spark, tiny_web, edges_df, algo):
    """At n_nodes=1 the Spark lift agrees with the sequential kernel."""
    out = (
        partition_spark(edges_df, algo, 4)
        .orderBy("pos")
        .select("partition")
        .toPandas()["partition"]
        .to_numpy()
    )
    seq = get_partitioner(algo)(tiny_web, 4).edge_partition
    assert np.array_equal(out, seq)


def test_spark_ablation_flags(spark, edges_df):
    out = partition_spark(edges_df, "clugp", 4, n_nodes=2, splitting=False, game=False)
    assert out.count() > 0


def test_spark_lift_nodes_without_edges(spark):
    """More nodes than edges, and an empty stream: the nodes left without
    edges emit nothing, the others partition their substream."""
    two = EdgeStream(np.array([1, 2]), np.array([2, 3])).to_spark(spark)
    out = partition_spark(two, "clugp", 4, n_nodes=4).orderBy("pos").toPandas()
    assert out["pos"].tolist() == [0, 1]
    assert out["partition"].between(0, 3).all()
    empty = EdgeStream(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)).to_spark(spark)
    assert partition_spark(empty, "hdrf", 4, n_nodes=2).count() == 0
