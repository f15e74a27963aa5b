"""spark-submit entrypoint — one paper table or figure, printed as markdown.

Usage: spark-submit jobs/table.py <id> [--sf 0.05]
       python jobs/table.py --help        # lists every id
       python jobs/table.py <id> > bench_results/<id>.md

The ids are the keys of ``repro.experiments.tables.TABLES``; each id's
description is the first paragraph of its runner's docstring.  Without
``--sf`` the runner runs at its own defaults, the bench scale that
``bench_results/<id>.md`` records.  The table is followed by the paper's
claims to diff it against.
"""
import argparse
import inspect

from repro.experiments.harness import to_markdown
from repro.experiments.paper_numbers import PAPER_CLAIMS
from repro.experiments.tables import TABLES


def description(table_id: str) -> str:
    return " ".join(TABLES[table_id].__doc__.split("\n\n")[0].split())


if __name__ == "__main__":
    ap = argparse.ArgumentParser(
        description="Run one paper table or figure and print it.",
        epilog="tables:\n" + "\n".join(f"  {t:<4} {description(t)}" for t in TABLES),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("table", choices=TABLES, metavar="id", help="a table id, listed below")
    ap.add_argument("--sf", type=float, help="dataset scale factor (default: the runner's)")
    args = ap.parse_args()

    runner = TABLES[args.table]
    sf = inspect.signature(runner).parameters["sf"].default if args.sf is None else args.sf
    df = runner(sf=sf)
    print(f"\n== {args.table}: {description(args.table)} (sf={sf}) ==")
    print(to_markdown(df))
    print("\nPaper claims to diff against:")
    for claim in PAPER_CLAIMS[args.table]:
        print(f"  - {claim}")
