"""Schema/shape tests for every experiment-table runner (DESIGN.md §5).

Each runner is executed at a tiny scale — these validate plumbing; the
bench-scale numbers live in benchmarks/ and EXPERIMENTS.md."""
import pandas as pd
import pytest

from repro.experiments import tables as T
from repro.experiments.harness import (
    ordered_stream,
    rf_growth,
    run_point,
    sweep,
    to_markdown,
    winner_table,
)
from repro.experiments.paper_numbers import PAPER_CLAIMS
from repro.graphs.generators import web_graph

TINY = dict(sf=0.002)
KS = [2, 4]


def test_registry_covers_all_artifacts():
    assert set(T.TABLES) == {"t1", "t3", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11"}
    assert set(T.TABLES) == set(PAPER_CLAIMS)


def test_run_point_schema(tiny_web):
    r = run_point(tiny_web, "hashing", 4)
    for key in ("algo", "k", "replication_factor", "relative_balance", "seconds",
                "space_mb", "score_ops"):
        assert key in r
    assert r["algo"] == "Hashing"


def test_sweep_shape(tiny_web):
    df = sweep(tiny_web, ["hashing", "dbh"], [2, 4])
    assert len(df) == 4
    assert set(df.algo) == {"Hashing", "DBH"}


def test_ordered_stream_modes(tiny_web):
    assert ordered_stream(tiny_web, "clugp") is tiny_web
    assert ordered_stream(tiny_web, "hdrf") is not tiny_web


def test_rf_growth_and_winner_table(tiny_web):
    df = sweep(tiny_web, ["hashing", "clugp"], [2, 8])
    g = rf_growth(df, "Hashing")
    assert g > 0
    wt = winner_table(df)
    assert set(wt.columns) >= {"k", "best", "worst"}
    assert len(wt) == 2


def test_to_markdown_roundtrip(tiny_web):
    df = sweep(tiny_web, ["hashing"], [2])
    md = to_markdown(df)
    assert md.count("|") > 6 and "Hashing" in md


def test_t1_matrix():
    df = T.t1_algorithm_matrix(sf=0.002, k=8)
    assert set(df.algo) == {"CLUGP", "HDRF", "Greedy", "Mint", "DBH", "Hashing"}
    assert set(df.time_class) == {"Low", "Medium", "High"}
    assert set(df.quality_class) == {"Low", "Medium", "High"}


def test_t3_datasets():
    df = T.t3_datasets(sf=0.002)
    assert len(df) == 5
    assert (df.n_edges > 0).all() and (df.powerlaw_alpha > 1).all()


@pytest.mark.parametrize("name", ["uk", "it"])
def test_f3_runner(name):
    df = T.f3_rf_vs_k(name, sf=0.002, ks=KS, algos=["clugp", "hashing"])
    assert len(df) == 4
    assert (df.replication_factor >= 1).all()


def test_f4_runner():
    df = T.f4_twitter(sf=0.002, ks=[2])
    assert {"pagerank_s", "total_task_s"} <= set(df.columns)
    assert (df.total_task_s >= df.pagerank_s).all()


def test_f5_runner():
    df = T.f5_sample_sizes(sf=0.005, k=4, fractions=(0.5, 1.0), algos=["hashing"])
    assert len(df) == 2
    assert set(df.sample_frac) == {0.5, 1.0}


def test_f6_runner():
    df = T.f6_space(sf=0.002, ks=[4])
    assert (df.loc[df.algo == "Hashing", "space_mb"] == 0).all()
    assert (df.loc[df.algo == "HDRF", "space_mb"] > 0).all()


def test_f7_runner():
    df = T.f7_time(sf=0.002, ks=[4])
    assert {"seconds", "score_ops"} <= set(df.columns)
    assert (df.seconds > 0).all()


def test_f8_runner():
    df = T.f8_system(sf=0.002, k=4, rtts_ms=(0.0, 10.0))
    assert len(df) == len(T.ALL_ALGOS) * 2
    zero = df[df.rtt_ms == 0.0].set_index("algo").communication_s
    ten = df[df.rtt_ms == 10.0].set_index("algo").communication_s
    assert (ten > zero).all()  # latency adds communication time


def test_f9_runner():
    df = T.f9_ablation(sf=0.002, ks=[4])
    assert set(df.algo) == {"CLUGP", "CLUGP-S", "CLUGP-G"}


def test_f10_runner():
    df = T.f10_parallel(sf=0.002, k=4, threads=(1, 2, 4), batch_sizes=(64, 256, 1024, 4096))
    assert set(df.sweep) == {"threads", "batch_size"}
    assert (df.wall_s > 0).all()
    # The thread rows are one run, modeled: one RF, one wall time, and a
    # makespan that never grows with threads.
    rows = df[df.sweep == "threads"].sort_values("value")
    assert rows.replication_factor.nunique() == 1
    assert rows.wall_s.nunique() == 1
    assert rows.modeled_game_s.is_monotonic_decreasing


def test_f11_runner():
    df = T.f11_analysis(sf=0.002, k=4, taus=(1.0, 1.5), weights=(0.3, 0.7))
    tau_rows = df[df.sweep == "tau"]
    assert (tau_rows.relative_balance <= 1.55).all()
    assert len(df) == 4


def test_jobs_importable():
    """``jobs/table.py`` lists every registered table and runs one."""
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).parent.parent

    def run(*args):
        return subprocess.run(
            [sys.executable, "jobs/table.py", *args], cwd=root, capture_output=True, text=True
        )

    out = run("--help")
    assert out.returncode == 0, out.stderr
    listed = {line.split()[0] for line in out.stdout.split("tables:\n")[1].splitlines()}
    assert listed == set(T.TABLES)
    out = run("t3", "--sf", "0.002")
    assert out.returncode == 0, out.stderr
    assert "== t3:" in out.stdout
