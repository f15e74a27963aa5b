"""The benchmark's workloads: edge stream → CLUGP → quality → downstream.

Driver workloads run the sequential kernels in this process, the way each
of the paper's nodes runs them: ``clugp_partition``, then
``quality_local`` + ``layout_local`` + ``costmodel.simulate`` (Fig 8's
modeled PageRank).  The Spark workload runs the distributed chain on a
local session: ``clugp_partition_spark`` → ``quality`` → ``layout`` →
``pagerank`` → ``connected_components``.

With tracing on, a pipeline run records one span per layer call, and the
partition step calls the three passes one by one
(``stream_cluster`` → ``cluster_graph`` → ``play_game`` → ``transform``)
so that each pass gets its own span.
"""
from __future__ import annotations

import hashlib
import math
import os
import shlex
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.clugp import clugp_partition, clugp_partition_spark
from repro.core.clustering import cluster_graph, stream_cluster
from repro.core.game import play_game, potential
from repro.core.transform import transform
from repro.engine.cc import cc_reference, connected_components
from repro.engine.costmodel import CostModel, simulate
from repro.engine.gas import layout, layout_local
from repro.engine.pagerank import pagerank, pagerank_reference
from repro.graphs.generators import EdgeStream, dataset
from repro.metrics.quality import quality, quality_local

from spans import NullTracer, seconds_per_span

TAU = 1.0
PR_ITERATIONS = 10
MODEL = CostModel(rtt=0.01)  # Fig 8's 10 ms round trip
N_NODES = 4
SETUP_REPEATS = 3
SPARK_PARTITION_REPEATS = 5
PR_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Workload:
    dataset: str
    sf: float
    k: int
    spark: bool


WORKLOADS = {
    # 9.6k edges in crawl order, k=256: pass 2 scores k partitions per
    # cluster and pass 3 scans for underfull partitions, so large-k
    # optimisations show here.  The passes' shares of partition time are
    # close to those at 10x the input, and a partition takes about 0.2 s,
    # so a run times a few hundred of them.
    "clugp-it-k256": Workload("it", 0.001, 256, spark=False),
    # 270k edges with no crawl locality, k=4: the same kernels with little
    # k-dependent work and heavy splitting; a large-k optimisation should
    # leave it unchanged.
    "clugp-twitter-k4": Workload("twitter", 0.03, 4, spark=False),
    # 30k edges through the whole Spark chain: the kernels take about a
    # second, PageRank and CC dominate.
    "spark-uk-k32": Workload("uk", 0.01, 32, spark=True),
}


class Checks:
    """Correctness checks of one run, each counted as passed or failed."""

    def __init__(self) -> None:
        self.results: list[dict] = []

    def check(self, name: str, ok, detail="") -> None:
        self.results.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    @property
    def run(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def digest(edge_partition: np.ndarray) -> str:
    """sha256 of an assignment as little-endian int64, in stream order."""
    return hashlib.sha256(np.asarray(edge_partition, dtype="<i8").tobytes()).hexdigest()


def median(xs) -> float:
    return float(statistics.median(xs))


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), seconds it took)``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@dataclass
class Passes:
    """The outputs of the three passes over one substream."""

    clustering: object
    sizes: np.ndarray
    adj: tuple
    game: object
    edge_partition: np.ndarray


def compose(stream: EdgeStream, k: int, tr) -> Passes:
    """``clugp_partition``'s passes, called one by one, each in its own span."""
    with tr.span("clugp.passes"):
        with tr.span("clustering.stream_cluster"):
            clus = stream_cluster(stream, v_max=max(1.0, stream.n_edges / k))
        with tr.span("clustering.cluster_graph"):
            sizes, adj = cluster_graph(clus)
        with tr.span("game.play_game"):
            game = play_game(sizes, adj, k)
        with tr.span("transform.transform"):
            out = transform(stream, clus, game.assignment, k, tau=TAU)
    return Passes(clus, sizes, adj, game, out.edge_partition)


def pass_counts(passes: list[Passes], k: int) -> dict:
    """Work counts of the passes, summed over substreams."""
    c = {
        "clustering.n_clusters": 0, "clustering.n_mirrors": 0,
        "game.rounds": 0, "game.moves": 0, "game.score_ops": 0,
        "game.potential_final": 0.0, "game.batch_s_max": 0.0,
    }
    for p in passes:
        c["clustering.n_clusters"] += p.clustering.n_clusters
        c["clustering.n_mirrors"] += p.clustering.n_mirrors
        c["game.rounds"] += p.game.rounds
        c["game.moves"] += p.game.moves
        c["game.score_ops"] += p.game.score_ops
        c["game.potential_final"] += potential(p.game.assignment, p.sizes, p.adj, p.game.lam, k)
        c["game.batch_s_max"] = max(c["game.batch_s_max"], max(p.game.batch_times, default=0.0))
    return c


def layer_seconds(tr, root, n_edges: int, counts: dict) -> dict:
    """Per-layer metrics from the self times of ``root``'s spans (``<span>_s``)."""
    selfs = tr.self_seconds(root)
    m = {f"{name}_s": s for name, s in selfs.items() if name != "pipeline"}
    if "clustering.stream_cluster" in selfs:
        m["clustering.ns_per_edge"] = 1e9 * selfs["clustering.stream_cluster"] / n_edges
        m["transform.ns_per_edge"] = 1e9 * selfs["transform.transform"] / n_edges
        m["game.s_per_round"] = selfs["game.play_game"] / max(1, counts["game.rounds"])
    return m


def check_assignment(checks: Checks, n_edges: int, pos, edge_partition, k: int, node_edges) -> None:
    checks.check(
        "every edge assigned exactly once",
        len(pos) == n_edges and np.array_equal(np.sort(pos), np.arange(n_edges)),
        f"{len(pos)} rows for {n_edges} edges",
    )
    ep = np.asarray(edge_partition)
    checks.check(
        "partition ids in [0,k)",
        len(ep) > 0 and ep.min() >= 0 and ep.max() < k,
        f"range [{ep.min()}, {ep.max()}]",
    )
    # Alg 1 caps each node's partitions at ceil(τ·|E_node|/k) edges.
    cap = sum(math.ceil(TAU * n / k) for n in node_edges)
    top = int(np.bincount(ep, minlength=k).max())
    checks.check("balance within the tau cap", top <= cap, f"max load {top}, cap {cap}")


def downstream_local(stream, ep, k, tr) -> tuple[dict, object, object]:
    with tr.span("quality.quality_local"):
        q = quality_local(stream, ep, k)
    with tr.span("gas.layout_local"):
        lay = layout_local(stream, ep, k)
    with tr.span("costmodel.simulate"):
        sim = simulate(lay, iterations=PR_ITERATIONS, model=MODEL)
    return q, lay, sim


def end_to_end(n_edges: int, partition_s, pipeline_s, q: dict, sim) -> dict:
    """Timings from the fastest repetition of each.

    A shared host slows Python code by up to 1.8x for stretches of seconds
    to minutes; the median of a run follows those stretches, while the
    fastest repetition is the one least disturbed by them.
    """
    return {
        "partition_edges_per_s": n_edges / min(partition_s),
        "pipeline_s": min(pipeline_s),
        "replication_factor": float(q["replication_factor"]),
        "relative_balance": float(q["relative_balance"]),
        "modeled_pagerank_s": float(sim.total_s),
    }


def trace_metrics(tr, root, partition_span: str, layer: dict) -> dict:
    """Span totals of one traced pipeline, plus its per-layer metrics."""
    tree = tr.tree(root)
    selfs = tr.self_seconds(root)
    m = {
        "trace.pipeline_s": root.seconds,
        "trace.partition_s": next(s.seconds for s in tree if s.name == partition_span),
        # Time inside the pipeline that no layer call covers.
        "trace.unattributed_s": selfs["pipeline"] + selfs.get("clugp.passes", 0.0),
        "trace.spans": len(tree),
    }
    m["trace.span_cost_s"] = m["trace.spans"] * seconds_per_span()
    m.update(layer)
    return m


# -- driver workloads ---------------------------------------------------


def driver_rep(stream: EdgeStream, k: int, tr) -> dict:
    with tr.span("pipeline") as root:
        t0 = time.perf_counter()
        if tr.enabled:
            passes = compose(stream, k, tr)
            ep = passes.edge_partition
        else:
            passes = None
            ep = clugp_partition(stream, k, tau=TAU).edge_partition
        t1 = time.perf_counter()
        q, lay, sim = downstream_local(stream, ep, k, tr)
        t2 = time.perf_counter()
    return dict(root=root, ep=ep, passes=passes, q=q, lay=lay, sim=sim,
                partition_s=t1 - t0, pipeline_s=t2 - t0)


def run_driver(w: Workload, stream: EdgeStream, seconds: float, tr, checks: Checks,
               golden: str | None) -> tuple[dict, dict, np.ndarray]:
    n, k = stream.n_edges, w.k
    # Only the timings and digests of the repetitions are kept, so that
    # peak RSS does not grow with their number.
    partition_s, pipeline_s, digests = [], [], set()
    last = best = None
    stop = time.perf_counter() + seconds
    while last is None or time.perf_counter() < stop:
        last = driver_rep(stream, k, tr)
        partition_s.append(last["partition_s"])
        pipeline_s.append(last["pipeline_s"])
        digests.add(digest(last["ep"]))
        # Per-layer times come from the fastest repetition, the one the
        # end-to-end timings report.
        if best is None or last["pipeline_s"] < best["pipeline_s"]:
            best = last
    e2e = end_to_end(n, partition_s, pipeline_s, last["q"], last["sim"])

    ep = last["ep"]
    checks.check("repeated runs give one assignment", len(digests) == 1, f"{len(digests)} distinct")
    check_assignment(checks, n, np.arange(len(ep)), ep, k, [n])
    checks.check(
        "quality_local and layout_local agree",
        (last["q"]["n_replicas"], last["q"]["n_vertices"])
        == (last["lay"].n_replicas, last["lay"].n_vertices),
    )
    if tr.enabled:
        reference, single_s = timed(clugp_partition, stream, k, tau=TAU)
        checks.check(
            "per-pass composition reproduces clugp_partition",
            np.array_equal(reference.edge_partition, ep),
        )
    if golden is not None:
        checks.check("assignment matches the golden hash", digest(ep) == golden, digest(ep))

    if not tr.enabled:
        return e2e, {}, ep
    counts = pass_counts([best["passes"]], k)
    m = layer_seconds(tr, best["root"], n, counts)
    m.update(counts)
    layer = trace_metrics(tr, best["root"], "clugp.passes", m)
    layer["clugp.partition_s"] = single_s
    layer["gas.n_mirrors"] = last["lay"].n_mirrors
    layer["gas.sync_messages_per_iter"] = last["lay"].sync_messages_per_iter
    return e2e, layer, ep


# -- Spark workload -----------------------------------------------------


@contextmanager
def spark_session(tmp: Path):
    """Local session with ``jobs/common.get_spark``'s settings.

    At most ``nproc`` task slots, and as many shuffle partitions as slots:
    with get_spark's 64, the 10-iteration PageRank and CC alone take about
    70 s on 4 cores, too long for a run.  On exit the session is stopped
    and the JVM is shut down and waited for.
    """
    slots = min(N_NODES, len(os.sched_getaffinity(0)))
    # Both JVMs (spark-submit's launcher and the driver) keep their temp
    # files in ``tmp`` and write no hsperfdata file to /tmp.
    jvm_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{slots}]",
        "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(str(tmp))}",
        shlex.quote(f"--conf=spark.driver.extraJavaOptions={jvm_opts}"),
        "pyspark-shell",
    ])
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts
    from pyspark import SparkContext

    from jobs.common import get_spark

    spark = get_spark("perfbench")
    gateway = SparkContext._gateway
    try:
        spark.sparkContext.setLogLevel("ERROR")
        spark.conf.set("spark.sql.shuffle.partitions", str(slots))
        yield spark
    finally:
        spark.stop()
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        gateway.proc.wait(timeout=120)
        SparkContext._gateway = None
        SparkContext._jvm = None


def spark_warm_up(spark) -> None:
    """One small job through the Python workers and Arrow."""
    spark.range(4096).mapInPandas(lambda batches: batches, "id long").toPandas()


def prepare(w: Workload, seed: int, spark):
    """The workload's edge stream and, on Spark, its cached DataFrame."""
    stream = dataset(w.dataset, sf=w.sf, seed_offset=seed)
    if spark is None:
        return stream, None
    edges = stream.to_spark(spark).cache()
    edges.count()
    return stream, edges


def in_job_group(sc, group: str, fn):
    """Run ``fn`` in its own job group; return (result, seconds, jobs, stages)."""
    sc.setJobGroup(group, group)
    try:
        out, seconds = timed(fn)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # The status tracker is fed by the listener bus; drain it so that it
    # has seen every job of the group.
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = set()
    for j in jobs:
        info = tracker.getJobInfo(j)
        if info is not None:
            stages.update(info.stageIds)
    return out, seconds, len(jobs), len(stages)


def spark_partition(edges, k: int):
    """``clugp_partition_spark``, cached and collected; rows tagged by node."""
    from pyspark.sql import functions as F

    assign = (
        clugp_partition_spark(edges, k, n_nodes=N_NODES, tau=TAU)
        .withColumn("node", F.spark_partition_id())
        .cache()
    )
    return assign, assign.toPandas().sort_values("pos", ignore_index=True)


def spark_rep(spark, edges, k: int, tr) -> dict:
    sc = spark.sparkContext
    with tr.span("pipeline") as root:
        t0 = time.perf_counter()
        with tr.span("clugp.spark_partition"):
            assign, pdf = spark_partition(edges, k)
        t1 = time.perf_counter()
        with tr.span("quality.quality"):
            q = quality(assign, k)
        with tr.span("gas.layout"):
            lay = layout(assign, k)
        with tr.span("costmodel.simulate"):
            sim = simulate(lay, iterations=PR_ITERATIONS, model=MODEL)
        with tr.span("pagerank.pagerank"):
            ranks, pr_s, pr_jobs, pr_stages = in_job_group(
                sc, "pagerank",
                lambda: pagerank(assign, iterations=PR_ITERATIONS).collect(),
            )
        with tr.span("cc.connected_components"):
            (labels, cc_rounds), cc_s, cc_jobs, cc_stages = in_job_group(
                sc, "cc",
                lambda: (lambda lr: (lr[0].collect(), lr[1]))(connected_components(assign)),
            )
        t2 = time.perf_counter()
    assign.unpersist()
    return dict(
        root=root, pdf=pdf, q=q, lay=lay, sim=sim,
        ranks=ranks, labels=labels, partition_s=t1 - t0, pipeline_s=t2 - t0,
        layer={
            "pagerank.pagerank_s": pr_s,
            "pagerank.s_per_iter": pr_s / PR_ITERATIONS,
            "pagerank.spark_jobs": pr_jobs,
            "pagerank.spark_stages": pr_stages,
            "cc.connected_components_s": cc_s,
            "cc.rounds": cc_rounds,
            "cc.spark_jobs": cc_jobs,
            "cc.spark_stages": cc_stages,
        },
    )


def run_spark(w: Workload, stream: EdgeStream, edges, spark, tr, checks: Checks) -> tuple[dict, dict, np.ndarray]:
    # One pipeline run takes 40-50 s, longer than ``seconds``, so it runs
    # once.  The partition step alone is timed a few more times, before and
    # after it, so that its fastest time does not rest on one stretch of
    # the host's speed.
    n, k = stream.n_edges, w.k

    def partition_seconds() -> float:
        (assign, _), s = timed(spark_partition, edges, k)
        assign.unpersist()
        return s

    before = SPARK_PARTITION_REPEATS // 2
    partition_s = [partition_seconds() for _ in range(before)]
    last = spark_rep(spark, edges, k, tr)
    partition_s.append(last["partition_s"])
    partition_s += [partition_seconds() for _ in range(SPARK_PARTITION_REPEATS - before)]
    e2e = end_to_end(n, partition_s, [last["pipeline_s"]], last["q"], last["sim"])

    pdf = last["pdf"]
    ep = pdf["partition"].to_numpy()
    node_sizes = pdf.groupby("node").size()
    check_assignment(checks, n, pdf["pos"].to_numpy(), ep, k, node_sizes.tolist())
    ql, ql_s = timed(quality_local, stream, ep, k)
    ll, ll_s = timed(layout_local, stream, ep, k)
    checks.check("Spark quality equals quality_local", last["q"] == ql, f"{last['q']} vs {ql}")
    checks.check("Spark layout equals layout_local", last["lay"] == ll, f"{last['lay']} vs {ll}")

    # A vertex missing on one side counts with rank 0; every true rank is
    # at least (1-d)/|V|, far above the tolerance.
    ref = {int(v): r for v, r in pagerank_reference(stream, iterations=PR_ITERATIONS)}
    got = {int(r["v"]): r["rank"] for r in last["ranks"]}
    pr_err = max(abs(got.get(v, 0.0) - ref.get(v, 0.0)) for v in ref.keys() | got.keys())
    checks.check("PageRank matches pagerank_reference", pr_err <= PR_TOLERANCE, f"max abs err {pr_err}")
    got_cc = np.array(sorted((r["v"], r["component"]) for r in last["labels"]), dtype=np.int64)
    checks.check("CC equals cc_reference", np.array_equal(got_cc, cc_reference(stream)))

    # Each node's substream, recovered from the Spark output, rerun in
    # this process: once as clugp_partition (the lift baseline) and once
    # pass by pass.
    node_s, node_passes, node_ok, compose_ok = [], [], True, True
    node_tr = tr if tr.enabled else NullTracer()
    with node_tr.span("node.kernels") as node_root:
        for _, rows in pdf.groupby("node"):
            sub = EdgeStream(stream.src[rows["pos"].to_numpy()], stream.dst[rows["pos"].to_numpy()])
            res, seconds = timed(clugp_partition, sub, k, tau=TAU)
            sub_ep = res.edge_partition
            node_s.append(seconds)
            node_ok &= np.array_equal(sub_ep, rows["partition"].to_numpy())
            passes = compose(sub, k, node_tr)
            compose_ok &= np.array_equal(passes.edge_partition, sub_ep)
            node_passes.append(passes)
    checks.check("node kernels rerun in-process reproduce the Spark output", node_ok)
    checks.check("per-pass composition reproduces clugp_partition", compose_ok)

    if not tr.enabled:
        return e2e, {}, ep
    _, single_s = timed(clugp_partition, stream, k, tau=TAU)

    m = layer_seconds(tr, last["root"], n, {})
    m.update(last["layer"])
    layer = trace_metrics(tr, last["root"], "clugp.spark_partition", m)
    counts = pass_counts(node_passes, k)
    layer.update(layer_seconds(tr, node_root, n, counts))
    layer.update(counts)
    spark_s = min(partition_s)
    layer.update({
        "clugp.partition_s": single_s,
        "clugp.spark_partition_s": spark_s,
        "clugp.node_kernel_s_max": max(node_s),
        "clugp.lift_overhead_s": spark_s - max(node_s),
        "clugp.node_edges_min": int(node_sizes.min()),
        "clugp.node_edges_max": int(node_sizes.max()),
        "pagerank.max_abs_err": pr_err,
        "quality.quality_local_s": ql_s,
        "gas.layout_local_s": ll_s,
        "gas.n_mirrors": last["lay"].n_mirrors,
        "gas.sync_messages_per_iter": last["lay"].sync_messages_per_iter,
    })
    return e2e, layer, ep


# -- one run ------------------------------------------------------------


def run(name: str, seed: int, seconds: float, tr, import_s: float, tmp: Path,
        golden: dict) -> dict:
    """Set up, measure and check one workload; returns metrics and checks.

    ``import_s`` is the time the benchmark's imports take; ``setup_s`` adds
    the Spark session and warm-up job (once) and the median input
    preparation to it.
    """
    w = WORKLOADS[name]
    checks = Checks()
    t0 = time.perf_counter()
    with spark_session(tmp) if w.spark else nullcontext() as spark:
        if spark is not None:
            spark_warm_up(spark)
        once_s = import_s + time.perf_counter() - t0
        prep_s, edges = [], None
        for _ in range(SETUP_REPEATS):
            if edges is not None:
                edges.unpersist(blocking=True)
            (stream, edges), s = timed(prepare, w, seed, spark)
            prep_s.append(s)
        setup_s = once_s + median(prep_s)

        if w.spark:
            e2e, layer, ep = run_spark(w, stream, edges, spark, tr, checks)
            master = spark.sparkContext.master
        else:
            e2e, layer, ep = run_driver(w, stream, seconds, tr, checks,
                                    golden.get(name) if seed == 0 else None)
            master = "none"
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = _peak_rss_mb()
    host_ms = host_loop_ms()
    if tr.enabled:
        layer["host.loop_ms"] = host_ms
    return {
        "end_to_end": e2e,
        "per_layer": layer,
        "checks": checks,
        "n_edges": stream.n_edges,
        "assignment_sha256": digest(ep),
        "spark_master": master,
        "host_loop_ms": host_ms,
    }


def host_loop_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the host's speed in this run.

    The kernels are Python loops, and a shared host's speed for them can
    drift by 2x within minutes; this tells a slow host from a slow program.
    """
    def loop():
        s = 0
        for i in range(1_000_000):
            s += i * i
        return s

    return 1e3 * median([timed(loop)[1] for _ in range(reps)])


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
