"""The Spark session settings of the job entrypoints, the tests and perfbench.

Under ``spark-submit jobs/<name>.py`` the session comes from the submit
context; run directly (``python jobs/<name>.py``) a job self-bootstraps a
local session.  Either way ``get_spark`` applies the one set of session
settings, which the test fixture (the root ``conftest.py``) and perfbench
also take from it.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        # Joins take the shuffle path even on test-sized inputs.
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        # Under adaptive execution a checkpointed DataFrame reports an
        # unknown partitioning, so each PageRank/CC superstep would
        # reshuffle vertex state that is already co-partitioned with the
        # edges, and run every exchange as its own job.
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    # One shuffle partition per task slot.
    spark.conf.set("spark.sql.shuffle.partitions", str(spark.sparkContext.defaultParallelism))
    return spark
