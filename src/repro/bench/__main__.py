"""Command-line entry point for the paper's evaluation tables.

Usage::

    python -m repro.bench table2 [--scale S]
    python -m repro.bench table3 [--scale S] [--repeats R] [--columns c1,c2]
    python -m repro.bench ablations [--scale S] [--repeats R]

``table2`` prints the synthetic suite's statistics next to the paper's,
``table3`` times the generated (scalar, paper-faithful) routines against
the SPARSKIT / MKL / legacy-taco ports and scipy where it implements the
pair, and ``ablations`` times the three ablated plan options.  The
repo's own performance numbers are ``benchmarks/harness``.
"""

import argparse
from typing import List, Optional

from ..matrices.suite import suite
from . import (
    COLUMNS,
    render_ablations,
    render_table2,
    render_table3,
    run_ablations,
    run_table2,
    run_table3,
)


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument("report", choices=["table2", "table3", "ablations"])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="matrix size scale factor (default 1.0)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per cell (median reported)")
    parser.add_argument("--columns", type=str, default=None,
                        help="comma-separated Table 3 columns to run "
                             f"(choose from {','.join(COLUMNS)})")
    args = parser.parse_args(argv)
    columns = args.columns.split(",") if args.columns else COLUMNS
    unknown = [c for c in columns if c not in COLUMNS]
    if unknown:
        parser.error(
            f"unknown column(s) {', '.join(unknown)}; choose from {', '.join(COLUMNS)}"
        )

    matrices = suite(scale=args.scale)
    if args.report == "table2":
        print(render_table2(run_table2(matrices)))
    elif args.report == "table3":
        print(render_table3(run_table3(matrices, columns, args.repeats)))
    else:
        print(render_ablations(run_ablations(matrices, args.repeats)))


if __name__ == "__main__":
    main()
