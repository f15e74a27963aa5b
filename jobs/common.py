"""The Spark session settings of the job entrypoints.

Under ``spark-submit jobs/<name>.py`` the session comes from the submit
context; run directly (``python jobs/<name>.py``) a job self-bootstraps a
local session with the same conf as conftest.py.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
