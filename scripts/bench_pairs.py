#!/usr/bin/env python3
"""Alternating perfbench runs of two revisions, written to one BENCH file.

    python3 scripts/bench_pairs.py --parent REV [--change REV] --pairs N
        --seconds S [--workloads W ...] [--first-seed K] --out BENCH_<pr>.json

Each revision is extracted with git archive into .bench_build/pairs/parent
and .bench_build/pairs/change, paths of equal length, as peak_rss_mb moves
with the length of the checkout's path. Pair i of a workload runs

    python3 perfbench/run.py --workload W --seed K+i-1 --seconds S --trace 0

in both trees, the parent first in odd pairs and the change first in even
ones, since the machine drifts within a set and the order of a pair matters.
The file keeps every run (its metrics, the # machine object, the calibration
line, correctness and exit code) and, for each end-to-end metric of the
change's BENCHMARK.json, both sides' medians, quartiles and IQRs, the gap
between the medians (positive when the change is better) and the pair wins,
overall and split by which side ran first. Exits 1 if any run is incorrect
or exits non-zero.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = os.path.join(ROOT, ".bench_build", "pairs")
SIDES = ("parent", "change")  # names of equal length


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(sha: str, tree: str) -> None:
    """A fresh copy of revision sha's committed files at tree."""
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit(f"git archive {sha} failed")


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run in tree, read from its output lines."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    record = {"exit": out.returncode, "correct": False, "metrics": {}}
    for line in lines:
        if line.startswith("# machine "):
            record["machine"] = json.loads(line[len("# machine "):])
        elif line.startswith("# calibration "):
            record["calibration"] = line[2:]
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["stderr"] = out.stderr[-2000:]
        return record
    record.update({k: last[k] for k in ("correct", "attempted", "failed")})
    record["metrics"] = {name: m["value"] for name, m in last["metrics"].items()}
    return record


def spread(values: list) -> dict:
    """Median and inclusive quartiles of values (at least two)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list, better: dict) -> dict:
    """Per metric named in better ("lower" or "higher"), both sides' spreads,
    the relative change of the median, the gap between the medians in the
    change's favour and the pair wins: overall, parent first, change first."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        sides = {side: [pair[side]["metrics"][name] for pair in pairs.values()
                        if name in pair[side]["metrics"]] for side in SIDES}
        if min(len(v) for v in sides.values()) < 2:
            continue
        entry = {side: spread(values) for side, values in sides.items()}
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        entry["median_change"] = (change - parent) / parent if parent else None
        entry["median_gap"] = sign * (parent - change)
        for key, keep in (("wins", None), ("wins_parent_first", "parent"),
                          ("wins_change_first", "change")):
            wins = {"change": 0, "parent": 0, "ties": 0, "pairs": 0}
            for pair in pairs.values():
                first = "parent" if pair["parent"]["first"] else "change"
                got = [pair[side]["metrics"].get(name) for side in SIDES]
                if keep not in (None, first) or None in got:
                    continue
                gap = sign * (got[0] - got[1])
                wins["pairs"] += 1
                wins["change" if gap > 0 else "parent" if gap < 0 else "ties"] += 1
            entry[key] = wins
        summary[name] = entry
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=["sweep", "replay", "towers", "queries"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    doc = {"command": "python3 perfbench/run.py --workload W --seed K+i-1 --seconds S "
                      "--trace 0 in git archive copies at paths of equal length, "
                      "parent first in odd pairs",
           "seconds": args.seconds, "pairs": args.pairs, "first_seed": args.first_seed}
    trees = {}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        sha = git("rev-parse", "--verify", rev + "^{commit}")
        trees[side] = os.path.join(TREES, side)
        extract(sha, trees[side])
        doc[side] = {"rev": rev, "sha": sha, "path_len": len(trees[side])}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    doc["workloads"], ok = {}, True
    for workload in args.workloads:
        runs = []
        for pair in range(1, args.pairs + 1):
            seed = args.first_seed + pair - 1
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                run = run_once(trees[side], workload, seed, args.seconds)
                runs.append({"pair": pair, "seed": seed, "side": side,
                             "first": side == order[0], **run})
                ok &= run["correct"] and run["exit"] == 0
                print(f"{workload} pair {pair} {side}: {run['metrics']}", file=sys.stderr)
        doc["workloads"][workload] = {"runs": runs, "summary": summarize(runs, better)}
    doc["correct"] = ok
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
