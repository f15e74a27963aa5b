"""Shared experiment harness: run partitioners over sweeps, collect rows.

Every evaluation artifact in the paper reduces to "run partitioner X on
dataset D with k partitions, then measure {RF, balance, seconds, bytes,
score-ops, downstream system cost}".  This module is that loop; the
per-table parameterisations live in ``repro.experiments.tables``.

Stream orders follow §VI-A: *best* order per algorithm — random for the
one-pass baselines (HDRF, Greedy, Hashing, DBH), BFS for Mint and CLUGP.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.engine.gas import GraphLayout
from repro.graphs.generators import EdgeStream
from repro.metrics.quality import partition_counts_local, quality_from_counts
from repro.partitioners import get_partitioner

#: §VI-A streaming orders: random is best for the one-pass baselines.
RANDOM_ORDER = frozenset({"hashing", "dbh", "greedy", "hdrf"})

FLOAT_FMT = "%.3f"  # how ``to_markdown`` prints a float cell

#: Display names used in EXPERIMENTS.md, keyed by registry alias.
DISPLAY = {
    "clugp": "CLUGP",
    "clugp_s": "CLUGP-S",
    "clugp_g": "CLUGP-G",
    "hdrf": "HDRF",
    "greedy": "Greedy",
    "dbh": "DBH",
    "hashing": "Hashing",
    "mint": "Mint",
}


def ordered_stream(stream: EdgeStream, algo: str) -> EdgeStream:
    """The algorithm's best stream order (paper's fair-comparison setup)."""
    return stream.shuffled(seed=1) if algo in RANDOM_ORDER else stream


def run_point(stream: EdgeStream, algo: str, k: int, **kwargs) -> tuple[dict, GraphLayout]:
    """One (algorithm, k) measurement: the table row and the GAS layout of
    the assignment, both from one ``partition_counts_local`` pass."""
    st = ordered_stream(stream, algo)
    res = get_partitioner(algo)(st, k, **kwargs)
    counts = partition_counts_local(st, res.edge_partition, k)
    q = quality_from_counts(counts)
    row = {
        "algo": DISPLAY.get(algo, algo),
        "k": k,
        "replication_factor": round(q["replication_factor"], 4),
        "relative_balance": round(q["relative_balance"], 4),
        "seconds": round(res.seconds, 4),
        "space_mb": round(res.space_bytes / 2**20, 4),
        "score_ops": int(res.extra.get("score_ops", 0)),
        "n_vertices": q["n_vertices"],
        "n_edges": q["n_edges"],
    }
    return row, GraphLayout.from_counts(counts)


def sweep(stream: EdgeStream, algos: list[str], ks: list[int], **kwargs) -> pd.DataFrame:
    """Cartesian sweep; returns a tidy DataFrame (one row per run)."""
    return pd.DataFrame([run_point(stream, algo, k, **kwargs)[0] for k in ks for algo in algos])


def to_markdown(df: pd.DataFrame) -> str:
    """Markdown table without the tabulate dependency; floats as ``FLOAT_FMT``."""
    cols = list(df.columns)
    lines = ["| " + " | ".join(cols) + " |", "|" + "|".join("---" for _ in cols) + "|"]
    for _, row in df.iterrows():
        cells = [
            FLOAT_FMT % v if isinstance(v, (float, np.floating)) else str(v)
            for v in row
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
