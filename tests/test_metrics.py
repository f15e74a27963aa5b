"""Metric correctness: Spark aggregations vs the DuckDB oracle, and the
driver-side (numpy) fast path vs the Spark path."""
import numpy as np
import pytest

from repro.engine.gas import GraphLayout, layout, layout_local
from repro.graphs.generators import EdgeStream
from repro.metrics.quality import (
    assignment_df,
    partition_counts,
    quality,
    quality_local,
    replicas,
)
from repro.oracle import assert_equivalent
from repro.partitioners import get_partitioner


@pytest.fixture(scope="module")
def tiny_assignment(tiny_web):
    res = get_partitioner("hdrf")(tiny_web, 8)
    return tiny_web, res.edge_partition


def test_assignment_df_schema(spark, tiny_assignment):
    stream, parts = tiny_assignment
    df = assignment_df(spark, stream, parts)
    assert set(df.columns) == {"pos", "src", "dst", "partition"}
    assert df.count() == stream.n_edges


def test_partition_counts_oracle(spark, tiny_assignment):
    """Edges, union-distinct copies and min-partition masters per partition
    via Spark == the same relation via DuckDB SQL."""
    stream, parts = tiny_assignment
    assign = assignment_df(spark, stream, parts)
    assert_equivalent(
        partition_counts(assign),
        """
        WITH copies AS (
          SELECT DISTINCT v, partition FROM (
            SELECT src AS v, partition FROM assign
            UNION ALL
            SELECT dst AS v, partition FROM assign
          )
        ),
        masters AS (SELECT min(partition) AS partition FROM copies GROUP BY v),
        e AS (SELECT partition, count(*) AS edges FROM assign GROUP BY partition),
        c AS (SELECT partition, count(*) AS copies FROM copies GROUP BY partition),
        m AS (SELECT partition, count(*) AS masters FROM masters GROUP BY partition)
        SELECT partition, edges, copies, coalesce(masters, 0) AS masters
        FROM e JOIN c USING (partition) LEFT JOIN m USING (partition)
        """,
        assign=assign,
    )


def test_replicas_relation_oracle(spark, tiny_assignment):
    stream, parts = tiny_assignment
    assign = assignment_df(spark, stream, parts)
    assert_equivalent(
        replicas(assign).groupBy("partition").count().withColumnRenamed("count", "n"),
        """
        SELECT partition, count(*) AS n FROM (
          SELECT DISTINCT v, partition FROM (
            SELECT src AS v, partition FROM assign
            UNION ALL
            SELECT dst AS v, partition FROM assign
          )
        ) GROUP BY partition
        """,
        assign=assign,
    )


def test_quality_spark_vs_local(spark, tiny_assignment):
    """The numpy fast path must agree exactly with the Spark aggregations."""
    stream, parts = tiny_assignment
    q_spark = quality(assignment_df(spark, stream, parts), 8)
    q_local = quality_local(stream, parts, 8)
    for key in q_spark:
        assert q_spark[key] == pytest.approx(q_local[key]), key


def test_empty_assignment_all_entry_points(spark):
    """Spark and numpy quality/layout agree on an empty assignment: RF 1,
    balance 1 and zero counts."""
    empty = EdgeStream(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    parts = np.zeros(0, dtype=np.int64)
    assign = assignment_df(spark, empty, parts)
    expected = {
        "replication_factor": 1.0, "relative_balance": 1.0, "n_vertices": 0,
        "n_replicas": 0, "n_edges": 0, "n_partitions_used": 0,
    }
    assert quality(assign, 4) == quality_local(empty, parts, 4) == expected
    lay = layout_local(empty, parts, 4)
    assert layout(assign, 4) == lay == GraphLayout(0, 0, 4, 0, 0, 0)
    assert lay.replication_factor == 1.0


@pytest.mark.parametrize("algo", ["hashing", "clugp"])
def test_quality_local_all_algos(spark, tiny_web, algo):
    parts = get_partitioner(algo)(tiny_web, 4).edge_partition
    q_spark = quality(assignment_df(spark, tiny_web, parts), 4)
    q_local = quality_local(tiny_web, parts, 4)
    assert q_spark["replication_factor"] == pytest.approx(q_local["replication_factor"])
    assert q_spark["relative_balance"] == pytest.approx(q_local["relative_balance"])


def test_rf_lower_bound_one(tiny_web):
    """RF ≥ 1 always (every vertex has at least its master copy)."""
    for algo in ("hashing", "clugp"):
        parts = get_partitioner(algo)(tiny_web, 8).edge_partition
        assert quality_local(tiny_web, parts, 8)["replication_factor"] >= 1.0


def test_rf_upper_bound_k(tiny_web):
    parts = get_partitioner("hashing")(tiny_web, 4).edge_partition
    assert quality_local(tiny_web, parts, 4)["replication_factor"] <= 4.0


def test_single_partition_rf_is_one(tiny_web):
    parts = np.zeros(tiny_web.n_edges, dtype=np.int64)
    q = quality_local(tiny_web, parts, 1)
    assert q["replication_factor"] == 1.0
    assert q["relative_balance"] == 1.0


@pytest.mark.parametrize("algo", ["hashing", "clugp"])
def test_local_metrics_independent_of_id_magnitude(tiny_web, algo):
    """Ids × 2⁴⁰ name the same graph: RF, replicas and layout must not move."""
    parts = get_partitioner(algo)(tiny_web, 8).edge_partition
    shifted = EdgeStream(tiny_web.src << 40, tiny_web.dst << 40)
    q, q_big = quality_local(tiny_web, parts, 8), quality_local(shifted, parts, 8)
    assert q_big["replication_factor"] == q["replication_factor"]
    assert q_big["n_replicas"] == q["n_replicas"]
    assert layout_local(shifted, parts, 8) == layout_local(tiny_web, parts, 8)
