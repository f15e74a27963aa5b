"""One runner per evaluation artifact (DESIGN.md §5 index).

Each function returns a tidy pandas DataFrame — the "table of numbers"
behind the corresponding paper figure/table.  Scales default to the bench
configuration (SF≈0.05–0.1, ~10⁵–10⁶ endpoint updates); tests call them
at tiny SF to validate schemas and shapes cheaply.

The jobs in ``jobs/`` print these tables; ``EXPERIMENTS.md`` records them
next to the paper's reported numbers.
"""
from __future__ import annotations

import pandas as pd

from repro.core.clugp import clugp_partition
from repro.core.game import lpt_makespan
from repro.engine.costmodel import CostModel, simulate
from repro.engine.gas import layout_local
from repro.experiments.harness import DISPLAY, ordered_stream, run_point, sweep
from repro.graphs.generators import DATASETS, dataset
from repro.graphs.stats import powerlaw_alpha
from repro.metrics.quality import quality_local

ALL_ALGOS = ["clugp", "hdrf", "greedy", "mint", "dbh", "hashing"]
DEFAULT_KS = [4, 16, 64, 128, 256]
PAGERANK_ITERS = 10


def t1_algorithm_matrix(*, sf: float = 0.05, k: int = 256) -> pd.DataFrame:
    """Table I: measured time/quality class of every algorithm.

    Run at large k, where the O(k)-per-edge cost of the heuristic methods
    separates from the O(1) streams; classes are rank terciles of the
    measured numbers (2 Low / 2 Medium / 2 High over the 6 algorithms).
    """
    rows = []
    stream = dataset("uk", sf=sf)
    for algo in ALL_ALGOS:
        r = run_point(stream, algo, k)
        r.pop("_edge_partition"), r.pop("_extra", None)
        rows.append(r)
    df = pd.DataFrame(rows).drop(columns=["n_vertices", "n_edges"])
    tercile = lambda ranks, labels: [labels[min(int(r) * 3 // len(df), 2)] for r in ranks]
    df["time_class"] = tercile(
        df.score_ops.rank(method="first") - 1, ["Low", "Medium", "High"]
    )
    df["quality_class"] = tercile(
        df.replication_factor.rank(method="first") - 1, ["High", "Medium", "Low"]
    )
    return df


def t3_datasets(*, sf: float = 0.05) -> pd.DataFrame:
    """Table III: stats of the five synthetic dataset stand-ins."""
    rows = []
    for name in DATASETS:
        s = dataset(name, sf=sf)
        deg = s.degrees()
        rows.append(
            {
                "alias": name,
                "n_vertices": s.n_vertices,
                "n_edges": s.n_edges,
                "avg_degree": round(2 * s.n_edges / s.n_vertices, 2),
                "max_degree": int(deg.max()),
                "powerlaw_alpha": round(powerlaw_alpha(s), 2),
            }
        )
    return pd.DataFrame(rows)


def f3_rf_vs_k(
    name: str = "uk", *, sf: float = 0.05, ks: list[int] | None = None,
    algos: list[str] | None = None,
) -> pd.DataFrame:
    """Fig 3(a–d): replication factor vs #partitions on a web graph."""
    return sweep(dataset(name, sf=sf), algos or ALL_ALGOS, ks or DEFAULT_KS)


def f4_twitter(*, sf: float = 0.05, ks: list[int] | None = None) -> pd.DataFrame:
    """Fig 4: RF + total task runtime (partitioning + pagerank) on Twitter.

    Total runtime = measured partitioning seconds + simulated PageRank
    execution on the resulting layout (the paper's point: HDRF's better
    RF on social graphs is swamped by its partitioning cost).
    """
    stream = dataset("twitter", sf=sf)
    rows = []
    for k in ks or DEFAULT_KS:
        for algo in ALL_ALGOS:
            r = run_point(stream, algo, k)
            lay = layout_local(
                ordered_stream(stream, algo), r.pop("_edge_partition"), k
            )
            r.pop("_extra", None)
            sim = simulate(lay, iterations=PAGERANK_ITERS)
            r["pagerank_s"] = round(sim.total_s, 4)
            r["total_task_s"] = round(r["seconds"] + sim.total_s, 4)
            rows.append(r)
    return pd.DataFrame(rows)


def f5_sample_sizes(
    *, sf: float = 0.1, k: int = 128,
    fractions: tuple[float, ...] = (0.03, 0.1, 0.3, 1.0),
    algos: list[str] | None = None,
) -> pd.DataFrame:
    """Fig 5: RF vs sampled graph size (random edge samples of UK)."""
    full = dataset("uk", sf=sf)
    rows = []
    for frac in fractions:
        sub = full.sample(int(frac * full.n_edges), seed=7)
        for algo in algos or ["clugp", "hdrf", "greedy", "dbh", "hashing"]:
            r = run_point(sub, algo, k)
            r.pop("_edge_partition"), r.pop("_extra", None)
            r["sample_frac"] = frac
            rows.append(r)
    return pd.DataFrame(rows)


def f6_space(*, sf: float = 0.05, ks: list[int] | None = None) -> pd.DataFrame:
    """Fig 6: partitioner working-state space vs #partitions (IT-like)."""
    df = sweep(dataset("it", sf=sf), ALL_ALGOS, ks or DEFAULT_KS)
    return df[["algo", "k", "space_mb", "replication_factor"]]


def f7_time(name: str = "it", *, sf: float = 0.05, ks: list[int] | None = None) -> pd.DataFrame:
    """Fig 7: partitioning runtime (and score-op work) vs #partitions."""
    df = sweep(dataset(name, sf=sf), ALL_ALGOS, ks or DEFAULT_KS)
    return df[["algo", "k", "seconds", "score_ops", "replication_factor"]]


def f8_system(
    *, sf: float = 0.05, k: int = 32,
    rtts_ms: tuple[float, ...] = (0.0, 10.0, 50.0, 100.0),
    name: str = "it",
) -> pd.DataFrame:
    """Fig 8: simulated PageRank computation/communication per partitioner,
    with the PUMBA-style RTT sweep."""
    stream = dataset(name, sf=sf)
    rows = []
    for algo in ALL_ALGOS:
        r = run_point(stream, algo, k)
        lay = layout_local(ordered_stream(stream, algo), r["_edge_partition"], k)
        for rtt in rtts_ms:
            sim = simulate(
                lay, iterations=PAGERANK_ITERS, model=CostModel(rtt=rtt / 1e3)
            )
            rows.append(
                {
                    "algo": r["algo"],
                    "k": k,
                    "rtt_ms": rtt,
                    "replication_factor": r["replication_factor"],
                    "computation_s": round(sim.computation_s, 4),
                    "communication_s": round(sim.communication_s, 4),
                    "pagerank_total_s": round(sim.total_s, 4),
                    "sync_messages": sim.messages,
                }
            )
    return pd.DataFrame(rows)


def f9_ablation(*, sf: float = 0.05, ks: list[int] | None = None) -> pd.DataFrame:
    """Fig 9: CLUGP vs CLUGP-S (no splitting) vs CLUGP-G (no game), IT."""
    return sweep(dataset("it", sf=sf), ["clugp", "clugp_s", "clugp_g"], ks or DEFAULT_KS)


def f10_parallel(
    *, sf: float = 0.1, k: int = 64,
    threads: tuple[int, ...] = (1, 2, 4, 8),
    batch_sizes: tuple[int, ...] = (400, 1600, 6400, 25600),
) -> pd.DataFrame:
    """Fig 10: game parallelisation — thread sweep and batch-size sweep.

    The thread sweep comes from one run: its per-batch game times are
    scheduled onto ``t`` threads by ``lpt_makespan`` (DESIGN.md §4: Python's
    GIL caps wall-clock scaling, the modeled time preserves the
    work-partitioning shape), so every thread row shares the run's wall
    seconds and RF.
    """
    stream = dataset("uk", sf=sf)
    rows = []
    base = clugp_partition(stream, k, batch_size=batch_sizes[2])
    base_rf = round(quality_local(stream, base.edge_partition, k)["replication_factor"], 4)
    streaming_s = base.phase_seconds["clustering"] + base.phase_seconds["transform"]
    for t in threads:
        game_s = lpt_makespan(base.batch_times, t)
        rows.append(
            {
                "sweep": "threads",
                "value": t,
                "batch_size": batch_sizes[2],
                "wall_s": round(base.total_seconds(), 4),
                "game_wall_s": round(base.phase_seconds["game"], 4),
                "modeled_game_s": round(game_s, 4),
                "modeled_total_s": round(streaming_s + game_s, 4),
                "replication_factor": base_rf,
            }
        )
    for b in batch_sizes:
        res = clugp_partition(stream, k, batch_size=b)
        rows.append(
            {
                "sweep": "batch_size",
                "value": b,
                "batch_size": b,
                "wall_s": round(res.total_seconds(), 4),
                "game_wall_s": round(res.phase_seconds["game"], 4),
                "modeled_game_s": round(sum(res.batch_times), 4),
                "modeled_total_s": round(res.total_seconds(), 4),
                "replication_factor": round(
                    quality_local(stream, res.edge_partition, k)["replication_factor"], 4
                ),
            }
        )
    return pd.DataFrame(rows)


def f11_analysis(
    *, sf: float = 0.05, k: int = 64,
    taus: tuple[float, ...] = (1.0, 1.1, 1.2, 1.35, 1.5),
    weights: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
) -> pd.DataFrame:
    """Fig 11: RF vs relative load balance τ (a) and vs relative weight (b)."""
    stream = dataset("uk", sf=sf)
    rows = []
    for tau in taus:
        res = clugp_partition(stream, k, tau=tau)
        q = quality_local(stream, res.edge_partition, k)
        rows.append(
            {
                "sweep": "tau",
                "value": tau,
                "replication_factor": round(q["replication_factor"], 4),
                "relative_balance": round(q["relative_balance"], 4),
            }
        )
    for w in weights:
        res = clugp_partition(stream, k, lam=("weight", w))
        q = quality_local(stream, res.edge_partition, k)
        rows.append(
            {
                "sweep": "relative_weight",
                "value": w,
                "replication_factor": round(q["replication_factor"], 4),
                "relative_balance": round(q["relative_balance"], 4),
            }
        )
    return pd.DataFrame(rows)


#: DESIGN.md §5 registry: artifact id -> runner (used by jobs and benches).
TABLES = {
    "t1": t1_algorithm_matrix,
    "t3": t3_datasets,
    "f3": f3_rf_vs_k,
    "f4": f4_twitter,
    "f5": f5_sample_sizes,
    "f6": f6_space,
    "f7": f7_time,
    "f8": f8_system,
    "f9": f9_ablation,
    "f10": f10_parallel,
    "f11": f11_analysis,
}
