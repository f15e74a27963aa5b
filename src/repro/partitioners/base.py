"""Common interface for the vertex-cut streaming partitioners (Table I).

Every partitioner is a function ``EdgeStream × k → PartitionResult`` over
a sequential edge stream (the streaming model), and every one reports the
working-state footprint it had to keep (``space_bytes``) — the quantity
Fig 6 compares: Hashing keeps nothing, DBH a degree array, the heuristics
(Greedy/HDRF) the full vertex→partition-set replica table, Mint a window,
and CLUGP the O(2|V|) cluster/degree tables.  ``register`` is the one
place that rejects k < 1 and times a call.

``partition_spark`` lifts any registered partitioner into a DataFrame
transformation ``(pos,src,dst) → (pos,src,dst,partition)``, so the
metrics/GAS layers consume a uniform assignment relation.  The lift
imports pandas itself: this module, like every kernel, imports numpy
only, so a driver-side partition run never loads pandas or pyspark.
Inside a Spark worker the lift first installs
``stat_gated_zip_invalidation``, which keeps PySpark's per-task
``importlib.invalidate_caches()`` from re-reading every zip on the path.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.graphs.generators import ASSIGNMENT_SCHEMA, EdgeStream

if TYPE_CHECKING:
    import pandas as pd
    from pyspark.sql import DataFrame


@dataclass
class PartitionResult:
    """Edge→partition assignment of one streaming pass."""

    edge_partition: np.ndarray
    seconds: float = 0.0
    space_bytes: int = 0
    extra: dict = field(default_factory=dict)


PartitionFn = Callable[..., PartitionResult]

_REGISTRY: dict[str, PartitionFn] = {}


def register(name: str):
    """Register a partitioner under its Table-I alias.

    The registered function rejects k < 1 and sets ``seconds`` to the
    wall time of the call.
    """

    def deco(fn: PartitionFn) -> PartitionFn:
        @functools.wraps(fn)
        def run(stream: EdgeStream, k: int, **kwargs) -> PartitionResult:
            if k < 1:
                raise ValueError(f"k must be ≥ 1, got {k}")
            t0 = time.perf_counter()
            res = fn(stream, k, **kwargs)
            res.seconds = time.perf_counter() - t0
            return res

        _REGISTRY[name] = run
        return run

    return deco


def get_partitioner(name: str) -> PartitionFn:
    if name not in _REGISTRY:
        raise KeyError(f"unknown partitioner {name!r}; have {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def all_partitioners() -> list[str]:
    return sorted(_REGISTRY)


def stat_gated_zip_invalidation() -> None:
    """Make ``zipimporter.invalidate_caches`` re-read only a changed zip.

    PySpark's worker calls ``importlib.invalidate_caches()`` before every
    task.  Before Python 3.13 that makes each zipimporter re-read its
    archive's directory: about 16 importers point into ``pyspark.zip``,
    which costs 65 ms per task alone and 230-430 ms per task with four
    tasks at once.  The replacement re-reads an archive only when its
    ``(st_mtime_ns, st_size)`` differs from the last read, and all
    importers of the archive share that read, so a rewritten or replaced
    zip is still seen.  Installing it re-reads each cached archive once,
    so that every stamp matches the directory read after it.  Idempotent;
    on Python 3.13+, whose ``invalidate_caches`` only drops the cached
    directory, it changes nothing.  Imports the stdlib only.
    """
    import sys

    if sys.version_info >= (3, 13):
        return
    import os
    import zipimport

    importer = zipimport.zipimporter
    if getattr(importer.invalidate_caches, "stat_gated", False):
        return
    directories = zipimport._zip_directory_cache
    read_at: dict[str, tuple[int, int] | None] = {}

    def stamp(archive: str) -> tuple[int, int] | None:
        try:
            st = os.stat(archive)
        except OSError:
            return None
        return st.st_mtime_ns, st.st_size

    def reread(archive: str) -> None:
        now = stamp(archive)  # before the read: a change during it reads again
        try:
            directories[archive] = zipimport._read_directory(archive)
            read_at[archive] = now
        except zipimport.ZipImportError:
            directories.pop(archive, None)
            read_at.pop(archive, None)

    def invalidate_caches(self) -> None:
        now = stamp(self.archive)
        if now is None or read_at.get(self.archive) != now:
            reread(self.archive)
        self._files = directories.get(self.archive, {})

    invalidate_caches.stat_gated = True
    for archive in list(directories):
        reread(archive)
    importer.invalidate_caches = invalidate_caches


def partition_spark(
    edges: DataFrame, name: str, k: int, *, n_nodes: int = 1, **kwargs
) -> DataFrame:
    """Run partitioner ``name`` over a ``(pos,src,dst)`` DataFrame.

    The stream is range-split on ``pos`` into ``n_nodes`` contiguous
    substreams, and one ``mapInPandas`` task runs the kernel over each, in
    stream order.  ``n_nodes=1`` is one machine partitioning the whole
    stream, as in the paper's single-PC runs; ``n_nodes>1`` is §III-C's
    distributed nodes, whose partition ids (all in [0,k)) together form
    the global k-way partitioning.  ``k < 1`` and ``n_nodes < 1`` raise
    ``ValueError`` here, before any plan is built.

    Each task first installs ``stat_gated_zip_invalidation`` in its worker
    process.  PySpark's per-task ``importlib.invalidate_caches()`` then
    re-reads ``pyspark.zip``'s directory only if the file changed, instead
    of once per zipimporter on every task; a worker's first task still
    pays the full re-read.  A changed zip is still seen, and on Python
    3.13+ the shim is a no-op.  The assignment is unchanged.
    """
    if k < 1:
        raise ValueError(f"k must be ≥ 1, got {k}")
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be ≥ 1, got {n_nodes}")
    import pandas as pd  # the one pandas user here; ``run`` pickles it by reference

    fn = get_partitioner(name)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        stat_gated_zip_invalidation()
        frames = [b for b in batches if len(b)]
        if not frames:  # a node with no edges
            return
        pdf = pd.concat(frames, ignore_index=True).sort_values("pos")
        stream = EdgeStream(pdf["src"].to_numpy(), pdf["dst"].to_numpy())
        res = fn(stream, k, **kwargs)
        yield pdf.assign(partition=res.edge_partition)[
            ["pos", "src", "dst", "partition"]
        ]

    return edges.repartitionByRange(n_nodes, "pos").mapInPandas(run, schema=ASSIGNMENT_SCHEMA)
