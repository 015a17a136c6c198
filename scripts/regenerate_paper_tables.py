#!/usr/bin/env python3
"""Regenerate every published table from scratch into an output directory.

Writes CSV for the tower tables and JSON for the exception sets. Nothing is
copied from the source material; each number is recomputed by the engine.
"""
import argparse
import csv
import json
import os
import sys

from msum.campaign import EXAMPLE16, EXAMPLE17_PAIRS, EXAMPLE17_SEQUENCES
from msum.cyclo import corollary13_exceptions
from msum.towers import prop14_table, prop15_table, tower_sequence


def write_tower_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "n", "k", "modulus", "generator", "ord", "m", "w", "limit"])
        writer.writerows(rows)


def tower_csv_rows(p, n, k_max):
    report = tower_sequence(p, n, k_max)
    return [(p, n, lv.k, lv.modulus, lv.generator, lv.ord, lv.m, lv.w, report.limit)
            for lv in report.levels]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="tables")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    rows = []
    for (p, n), seq in sorted(EXAMPLE16.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        rows.extend(tower_csv_rows(p, n, len(seq)))
    write_tower_csv(os.path.join(args.out, "example16.csv"), rows)
    print(f"example16.csv: {len(rows)} rows")

    rows = []
    for (p, n), seq in sorted(EXAMPLE17_PAIRS.items()):
        rows.extend(tower_csv_rows(p, n, len(seq)))
    for (p, n), seq in sorted(EXAMPLE17_SEQUENCES.items()):
        rows.extend(tower_csv_rows(p, n, len(seq)))
    write_tower_csv(os.path.join(args.out, "example17.csv"), rows)
    print(f"example17.csv: {len(rows)} rows")

    for name, table in [("prop14", prop14_table(1000)), ("prop15", prop15_table(2689))]:
        path = os.path.join(args.out, f"{name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p", "k", "m"])
            writer.writerows(table)
        print(f"{name}.csv: {len(table)} rows")

    for n in (5, 7):
        exc = corollary13_exceptions(n)
        doc = {
            "n": n,
            "threshold": [exc.threshold.numerator, exc.threshold.denominator],
            "entries": [list(e) for e in exc.entries],
            "candidate_pool": sorted(exc.candidate_pool),
            "complete": exc.complete,
        }
        path = os.path.join(args.out, f"exceptions_{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        print(f"exceptions_{n}.json: {len(exc.entries)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
