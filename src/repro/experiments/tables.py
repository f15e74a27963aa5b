"""One runner per evaluation artifact (DESIGN.md §5 index).

Each function returns a tidy pandas DataFrame — the "table of numbers"
behind the corresponding paper figure/table.  A runner's keyword defaults
are the one definition of its bench scale (SF 0.03–0.1, ~10⁵–10⁶ endpoint
updates): ``python jobs/table.py <id> > bench_results/<id>.md`` runs it
at them, and ``EXPERIMENTS.md`` records the result next to the paper's
reported numbers.  Tests call the runners at tiny SF to validate schemas
and shapes cheaply.
"""
from __future__ import annotations

import pandas as pd

from repro.core.clugp import clugp_partition
from repro.core.game import lpt_makespan
from repro.engine.costmodel import CostModel, simulate
from repro.experiments.harness import run_point, sweep
from repro.graphs.generators import DATASETS, dataset
from repro.graphs.stats import powerlaw_alpha
from repro.metrics.quality import quality_local

ALL_ALGOS = ["clugp", "hdrf", "greedy", "mint", "dbh", "hashing"]
DEFAULT_KS = [4, 16, 64, 256]
PAGERANK_ITERS = 10


def t1_algorithm_matrix(*, sf: float = 0.05, k: int = 256) -> pd.DataFrame:
    """Table I: measured time/quality class of every algorithm.

    Run at large k, where the O(k)-per-edge cost of the heuristic methods
    separates from the O(1) streams; classes are rank terciles of the
    measured numbers (2 Low / 2 Medium / 2 High over the 6 algorithms).
    """
    df = sweep(dataset("uk", sf=sf), ALL_ALGOS, [k]).drop(columns=["n_vertices", "n_edges"])
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
    *, names: tuple[str, ...] = ("uk", "arabic", "webbase", "it"),
    sf: float = 0.03, ks: list[int] | None = None, algos: list[str] | None = None,
) -> pd.DataFrame:
    """Fig 3(a–d): replication factor vs #partitions on the web graphs; the
    IT rows are also Fig 6 (space_mb) and Fig 7 (seconds, score_ops).

    The paper draws Figs 3(d), 6 and 7 from one set of IT runs; so does
    this table, and each of its cells is one run.
    """
    frames = []
    for name in names:
        df = sweep(dataset(name, sf=sf), algos or ALL_ALGOS, ks or DEFAULT_KS)
        df.insert(0, "dataset", name)
        frames.append(df)
    return pd.concat(frames, ignore_index=True)


def f4_twitter(*, sf: float = 0.03, ks: list[int] | None = None) -> pd.DataFrame:
    """Fig 4: RF + total task runtime (partitioning + pagerank) on Twitter.

    Total runtime = measured partitioning seconds + simulated PageRank
    execution on the resulting layout (the paper's point: HDRF's better
    RF on social graphs is swamped by its partitioning cost).
    """
    stream = dataset("twitter", sf=sf)
    rows = []
    for k in ks or DEFAULT_KS:
        for algo in ALL_ALGOS:
            r, lay = run_point(stream, algo, k)
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
        for algo in algos or ["clugp", "hdrf", "dbh", "hashing"]:
            r, _ = run_point(sub, algo, k)
            r["sample_frac"] = frac
            rows.append(r)
    return pd.DataFrame(rows)


def f8_system(
    *, sf: float = 0.03, k: int = 32,
    rtts_ms: tuple[float, ...] = (0.0, 10.0, 50.0, 100.0),
) -> pd.DataFrame:
    """Fig 8: simulated PageRank computation/communication per partitioner
    on IT, with the PUMBA-style RTT sweep."""
    stream = dataset("it", sf=sf)
    rows = []
    for algo in ALL_ALGOS:
        r, lay = run_point(stream, algo, k)
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


def f9_ablation(*, sf: float = 0.03, ks: list[int] | None = None) -> pd.DataFrame:
    """Fig 9: CLUGP vs CLUGP-S (no splitting) vs CLUGP-G (no game), IT."""
    return sweep(dataset("it", sf=sf), ["clugp", "clugp_s", "clugp_g"], ks or DEFAULT_KS)


def f10_parallel(
    *, sf: float = 0.1, k: int = 64,
    threads: tuple[int, ...] = (1, 2, 4, 8),
    batch_sizes: tuple[int, ...] = (400, 1600, 6400, 25600),
) -> pd.DataFrame:
    """Fig 10: game parallelisation — thread sweep and batch-size sweep.

    The thread sweep reads the batch sweep's run at ``batch_sizes[2]``: its
    per-batch game times are scheduled onto ``t`` threads by
    ``lpt_makespan`` (DESIGN.md §4: Python's GIL caps wall-clock scaling,
    the modeled time preserves the work-partitioning shape), so every
    thread row shares that run's wall seconds and RF.
    """
    stream = dataset("uk", sf=sf)
    runs = [clugp_partition(stream, k, batch_size=b) for b in batch_sizes]
    rfs = [round(quality_local(stream, res.edge_partition, k)["replication_factor"], 4)
           for res in runs]
    rows = []
    base, base_rf = runs[2], rfs[2]
    phases = base.extra["phase_seconds"]
    streaming_s = phases["clustering"] + phases["transform"]
    for t in threads:
        game_s = lpt_makespan(base.extra["batch_times"], t)
        rows.append(
            {
                "sweep": "threads",
                "value": t,
                "batch_size": batch_sizes[2],
                "wall_s": round(base.seconds, 4),
                "game_wall_s": round(phases["game"], 4),
                "modeled_game_s": round(game_s, 4),
                "modeled_total_s": round(streaming_s + game_s, 4),
                "replication_factor": base_rf,
            }
        )
    for b, res, rf in zip(batch_sizes, runs, rfs):
        rows.append(
            {
                "sweep": "batch_size",
                "value": b,
                "batch_size": b,
                "wall_s": round(res.seconds, 4),
                "game_wall_s": round(res.extra["phase_seconds"]["game"], 4),
                "modeled_game_s": round(sum(res.extra["batch_times"]), 4),
                "modeled_total_s": round(sum(res.extra["phase_seconds"].values()), 4),
                "replication_factor": rf,
            }
        )
    return pd.DataFrame(rows)


def f11_analysis(
    *, sf: float = 0.03, k: int = 64,
    taus: tuple[float, ...] = (1.0, 1.1, 1.2, 1.35, 1.5),
    weights: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
) -> pd.DataFrame:
    """Fig 11: RF vs relative load balance τ (a) and vs relative weight (b)."""
    stream = dataset("uk", sf=sf)

    def point(sweep_name: str, value: float, **kwargs) -> dict:
        r, _ = run_point(stream, "clugp", k, **kwargs)
        return {"sweep": sweep_name, "value": value,
                "replication_factor": r["replication_factor"],
                "relative_balance": r["relative_balance"]}

    return pd.DataFrame(
        [point("tau", tau, tau=tau) for tau in taus]
        + [point("relative_weight", w, lam=("weight", w)) for w in weights]
    )


#: DESIGN.md §5 registry: artifact id -> runner (``jobs/table.py <id>``).
TABLES = {
    "t1": t1_algorithm_matrix,
    "t3": t3_datasets,
    "f3": f3_rf_vs_k,
    "f4": f4_twitter,
    "f5": f5_sample_sizes,
    "f8": f8_system,
    "f9": f9_ablation,
    "f10": f10_parallel,
    "f11": f11_analysis,
}
