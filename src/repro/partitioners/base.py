"""Common interface for the vertex-cut streaming partitioners (Table I).

Every partitioner is a function ``EdgeStream × k → PartitionResult`` over
a sequential edge stream (the streaming model), and every one reports the
working-state footprint it had to keep (``space_bytes``) — the quantity
Fig 6 compares: Hashing keeps nothing, DBH a degree array, the heuristics
(Greedy/HDRF) the full vertex→partition-set replica table, Mint a window,
and CLUGP the O(2|V|) cluster/degree tables.

``partition_spark`` lifts any registered partitioner into a DataFrame
transformation so the metrics/GAS layers consume a uniform
``(pos,src,dst,partition)`` assignment relation.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.graphs.generators import EdgeStream


@dataclass
class PartitionResult:
    """Edge→partition assignment of one streaming pass."""

    edge_partition: np.ndarray
    k: int
    seconds: float = 0.0
    space_bytes: int = 0
    extra: dict = field(default_factory=dict)

    def loads(self) -> np.ndarray:
        return np.bincount(self.edge_partition, minlength=self.k)


PartitionFn = Callable[..., PartitionResult]

_REGISTRY: dict[str, PartitionFn] = {}


def register(name: str):
    """Register a partitioner under its Table-I alias."""

    def deco(fn: PartitionFn) -> PartitionFn:
        _REGISTRY[name] = fn
        return fn

    return deco


def get_partitioner(name: str) -> PartitionFn:
    if name not in _REGISTRY:
        raise KeyError(f"unknown partitioner {name!r}; have {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def all_partitioners() -> list[str]:
    return sorted(_REGISTRY)


def timed(fn: Callable[[], PartitionResult]) -> PartitionResult:
    t0 = time.perf_counter()
    res = fn()
    res.seconds = time.perf_counter() - t0
    return res


def partition_spark(edges: DataFrame, name: str, k: int, **kwargs) -> DataFrame:
    """Run partitioner ``name`` over a ``(pos,src,dst)`` DataFrame.

    One-pass streaming partitioners are sequential by definition, so the
    stream is coalesced into a single ``mapInPandas`` task (one "machine",
    as in the paper's single-PC partitioning runs); CLUGP's multi-node
    variant lives in ``repro.core.clugp.clugp_partition_spark``.
    """
    fn = get_partitioner(name)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        pdf = pd.concat(list(batches), ignore_index=True)
        if len(pdf) == 0:
            return
        pdf = pdf.sort_values("pos")
        stream = EdgeStream(pdf["src"].to_numpy(), pdf["dst"].to_numpy())
        res = fn(stream, k, **kwargs)
        yield pdf.assign(partition=res.edge_partition)[
            ["pos", "src", "dst", "partition"]
        ]

    schema = "pos long, src long, dst long, partition long"
    return edges.coalesce(1).mapInPandas(run, schema=schema)
