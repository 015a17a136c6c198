#!/usr/bin/env python3
"""Run every verification claim at full published scale and summarize.

This is the long lane: the default CI suite covers the same claims on
smaller domains. Exits nonzero if any claim reports violations.
"""
import argparse
import os
import sys

from msum.campaign import default_jobs, list_claims, run_claim

# overrides of the claim defaults; every other claim runs at its defaults
FULL_SCALE = {
    "lemma3": {"e_max": 1000},
    "conjecture4": {"e_max": 2049},  # the full verified range
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=default_jobs())
    parser.add_argument("--store", default=os.environ.get("MSUM_STORE"))
    parser.add_argument("--claims", nargs="*", default=None,
                        help="subset of claim ids (default: all)")
    args = parser.parse_args()

    wanted = args.claims or list(list_claims())
    unknown = set(wanted) - set(list_claims())
    if unknown:
        parser.error(f"unknown claims: {sorted(unknown)}")

    failures = 0
    for cid in wanted:
        report = run_claim(cid, FULL_SCALE.get(cid, {}), jobs=args.jobs,
                           store=args.store)
        status = "ok " if report.ok else "FAIL"
        print(f"{status} {cid:12s} checks={report.checks:>9d} "
              f"violations={len(report.violations):>3d} {report.elapsed:7.1f}s")
        for v in report.violations[:10]:
            print(f"      {v}")
        failures += not report.ok
    print(f"\n{len(wanted) - failures}/{len(wanted)} claims verified")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
