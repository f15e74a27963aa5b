"""CLUGP benchmark: run one workload from a seed and print its metrics.

Run from the root of the repository:

    python3 perfbench/run.py --workload clugp-it-k256 --seed 0 --seconds 10 --trace 0

The workloads and metrics are listed in ``BENCHMARK.json``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted`` (correctness checks run), ``failed`` (checks failed) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it records the environment.
A per-layer metric of a layer the workload does not run reads 0.
Spans, checks and every computed metric go to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""
import time

T_START = time.perf_counter()  # setup_s counts the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# The imports are timed in this process and again in fresh interpreters;
# setup_s counts their median.
IMPORTS = "import numpy, pyspark, workloads, spans"
IMPORT_REPEATS = 5


def fresh_import_seconds() -> float:
    """Time of the benchmark's imports in a new interpreter (PYTHONPATH set)."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout)


def git_sha(root: Path) -> str:
    """HEAD's commit read from ``.git`` without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of BENCHMARK.json's workloads, or clugp-twitter-k4")
    ap.add_argument("--seed", type=int, default=0,
                    help="dataset seed offset; 0 gives the Table III presets")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: {src / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2

    # Everything this run and its Spark JVM and workers write stays in
    # the checkout; the workers import ``repro`` from ``src``.
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(HERE)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    tempfile.tempdir = str(tmp)
    sys.path[:0] = [str(src), str(ROOT)]

    import numpy
    import pyspark

    import workloads
    from spans import NullTracer, Tracer

    import_s = [time.perf_counter() - T_START]
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s += [fresh_import_seconds() for _ in range(IMPORT_REPEATS - 1)]
    tr = Tracer() if args.trace else NullTracer()
    try:
        res = workloads.run(args.workload, args.seed, args.seconds, tr,
                            statistics.median(import_s), tmp,
                            json.loads((HERE / "golden.json").read_text()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    measured = res["per_layer"] if args.trace else res["end_to_end"]
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    not_run = [m["name"] for m in listed if m["name"] not in measured]
    if not_run and not args.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {not_run}")
    # A per-layer metric of a layer this workload does not run reads 0.
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in listed}
    checks = res["checks"]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n_edges": res["n_edges"],
        "assignment_sha256": res["assignment_sha256"],
        "git_sha": git_sha(ROOT), "nproc": len(os.sched_getaffinity(0)),
        "spark_master": res["spark_master"], "python": platform.python_version(),
        "pyspark": pyspark.__version__, "numpy": numpy.__version__,
        "host_loop_ms": res["host_loop_ms"], "layers_not_run": not_run,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "meta": meta, "end_to_end": res["end_to_end"], "per_layer": res["per_layer"],
        "checks": checks.results, "spans": tr.records(),
    }, indent=1))
    for r in checks.results:
        if not r["ok"]:
            print(f"perfbench: check failed: {r['name']}: {r['detail']}", file=sys.stderr)
    print(json.dumps(meta))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.run,
        "failed": checks.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
