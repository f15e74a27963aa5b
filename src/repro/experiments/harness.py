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

from repro.graphs.generators import EdgeStream
from repro.metrics.quality import quality_local
from repro.partitioners import get_partitioner

#: §VI-A streaming orders: random is best for the one-pass baselines.
RANDOM_ORDER = frozenset({"hashing", "dbh", "greedy", "hdrf"})

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


def ordered_stream(stream: EdgeStream, algo: str, *, seed: int = 1) -> EdgeStream:
    """The algorithm's best stream order (paper's fair-comparison setup)."""
    return stream.shuffled(seed=seed) if algo in RANDOM_ORDER else stream


def run_point(
    stream: EdgeStream, algo: str, k: int, *, order_seed: int = 1, **kwargs
) -> dict:
    """One (algorithm, k) measurement row."""
    st = ordered_stream(stream, algo, seed=order_seed)
    res = get_partitioner(algo)(st, k, **kwargs)
    q = quality_local(st, res.edge_partition, k)
    return {
        "algo": DISPLAY.get(algo, algo),
        "k": k,
        "replication_factor": round(q["replication_factor"], 4),
        "relative_balance": round(q["relative_balance"], 4),
        "seconds": round(res.seconds, 4),
        "space_mb": round(res.space_bytes / 2**20, 4),
        "score_ops": int(res.extra.get("score_ops", 0)),
        "n_vertices": q["n_vertices"],
        "n_edges": q["n_edges"],
        "_edge_partition": res.edge_partition,
        "_extra": res.extra,
    }


def sweep(
    stream: EdgeStream,
    algos: list[str],
    ks: list[int],
    *,
    keep_assignments: bool = False,
    **kwargs,
) -> pd.DataFrame:
    """Cartesian sweep; returns a tidy DataFrame (one row per run)."""
    rows = []
    for k in ks:
        for algo in algos:
            row = run_point(stream, algo, k, **kwargs)
            if not keep_assignments:
                row.pop("_edge_partition")
            row.pop("_extra", None)
            rows.append(row)
    return pd.DataFrame(rows)


def rf_growth(df: pd.DataFrame, algo: str) -> float:
    """RF(k_max)/RF(k_min) for one algorithm — the Fig 3 'stability' stat."""
    sub = df[df.algo == algo].sort_values("k")
    if len(sub) < 2:
        return float("nan")
    return float(sub.replication_factor.iloc[-1] / sub.replication_factor.iloc[0])


def winner_table(df: pd.DataFrame) -> pd.DataFrame:
    """Per-k ranking by RF (who wins where — the shape EXPERIMENTS.md diffs)."""
    out = []
    for k, grp in df.groupby("k"):
        g = grp.sort_values("replication_factor")
        out.append(
            {
                "k": int(k),
                "best": g.algo.iloc[0],
                "best_rf": g.replication_factor.iloc[0],
                "runner_up": g.algo.iloc[1] if len(g) > 1 else "",
                "worst": g.algo.iloc[-1],
                "worst_rf": g.replication_factor.iloc[-1],
            }
        )
    return pd.DataFrame(out)


def to_markdown(df: pd.DataFrame, float_fmt: str = "%.3f") -> str:
    """Markdown table without the tabulate dependency."""
    cols = list(df.columns)
    lines = ["| " + " | ".join(cols) + " |", "|" + "|".join("---" for _ in cols) + "|"]
    for _, row in df.iterrows():
        cells = [
            float_fmt % v if isinstance(v, (float, np.floating)) else str(v)
            for v in row
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
