"""spark-submit entrypoint — end-to-end distributed CLUGP pipeline.

Runs the paper's §III-C parallel mechanism for real on Spark: the edge
stream is range-split into ``--nodes`` substreams, each executor task
runs the three-pass CLUGP kernel on its substream (mapInPandas), the
partial results combine into the global k-way partitioning, and the
GAS engine executes PageRank over the resulting vertex-cut layout,
reporting quality + simulated system cost.

Usage: spark-submit jobs/distributed_clugp.py [--sf 0.03] [--k 32] [--nodes 4]
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from common import get_spark

from repro.engine.costmodel import CostModel, simulate
from repro.engine.gas import GraphLayout
from repro.engine.pagerank import pagerank
from repro.graphs.generators import dataset
from repro.metrics.quality import collect_counts, quality_from_counts
from repro.partitioners import partition_spark

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="uk", help="Table III alias")
    ap.add_argument("--sf", type=float, default=0.03)
    ap.add_argument("--k", type=int, default=32)
    ap.add_argument("--nodes", type=int, default=4)
    args = ap.parse_args()

    spark = get_spark("distributed-clugp")
    edges = dataset(args.dataset, sf=args.sf).to_spark(spark).cache()
    assign = partition_spark(edges, "clugp", args.k, n_nodes=args.nodes).cache()

    counts = collect_counts(assign, args.k)
    q = quality_from_counts(counts)
    lay = GraphLayout.from_counts(counts)
    sim = simulate(lay, iterations=10, model=CostModel(rtt=0.01))
    top = pagerank(assign, iterations=5).orderBy("rank", ascending=False).limit(5)

    print(f"\n== distributed CLUGP: {args.dataset} sf={args.sf} "
          f"k={args.k} nodes={args.nodes} ==")
    for key, val in q.items():
        print(f"  {key:22s} {val}")
    print(f"  mirrors                {lay.n_mirrors}")
    print(f"  pagerank 10-iter sim   comp={sim.computation_s:.4f}s "
          f"comm={sim.communication_s:.4f}s (RTT 10ms)")
    print("  top-5 pagerank vertices:")
    for row in top.collect():
        print(f"    v={row['v']:<8d} rank={row['rank']:.6f}")
    spark.stop()
