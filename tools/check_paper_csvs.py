#!/usr/bin/env python3
"""Diff the paper benches' modeled columns against the committed CSVs.

The six paper benches (fig6, table1_2, fig7, fig8, table3, sec56) write
their tables as CSVs into the current directory. Their modeled columns are
pure functions of the code, so a rerun must reproduce the committed CSVs
exactly once the wall-clock columns (any column whose name contains
"wall") are stripped. A change that moves a modeled number fails here until
the regenerated CSV is committed.

Usage:
  check_paper_csvs.py --fresh DIR [--committed DIR]

DIR holds the rerun's CSVs; --committed defaults to the repository root.
Exit status: 0 = every modeled column matches, 1 = a mismatch or a missing
file.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import sys
from pathlib import Path

PAPER_CSVS = [
    "fig6_kmer_heavy_hitters.csv",
    "fig6_theta_sensitivity.csv",
    "table1_oracle_traversal.csv",
    "table2_offnode_lookups.csv",
    "fig7_scaffolding_human.csv",
    "fig7_scaffolding_wheat.csv",
    "fig8_end_to_end_human.csv",
    "fig8_end_to_end_wheat.csv",
    "table3_metagenome.csv",
    "table3_singleton_contrast.csv",
    "sec56_competitors.csv",
]


def modeled_rows(path: Path) -> list[str]:
    """The CSV's rows with every wall-clock column removed."""
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        return []
    keep = [i for i, name in enumerate(rows[0]) if "wall" not in name]
    return [",".join(row[i] for i in keep if i < len(row)) for row in rows]


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", type=Path, required=True)
    parser.add_argument("--committed", type=Path, default=root)
    args = parser.parse_args()

    failed = False
    for name in PAPER_CSVS:
        fresh = args.fresh / name
        committed = args.committed / name
        if not fresh.is_file() or not committed.is_file():
            print(f"{name}: missing ({fresh if not fresh.is_file() else committed})")
            failed = True
            continue
        want = modeled_rows(committed)
        got = modeled_rows(fresh)
        if want == got:
            print(f"{name}: modeled columns match")
            continue
        failed = True
        print(f"{name}: modeled columns differ from the committed CSV")
        sys.stdout.writelines(
            line + "\n"
            for line in difflib.unified_diff(
                want, got, "committed/" + name, "fresh/" + name, lineterm=""
            )
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
