#!/usr/bin/env python3
"""Alternating perfbench runs of two revisions, written to one BENCH file.

    python3 scripts/bench_pairs.py --parent REV [--change REV | --null] --pairs N
        --seconds S [--workloads W ...] [--first-seed K] --out BENCH_<pr>.json
    python3 scripts/bench_pairs.py --summarize BENCH_<pr>.json

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
overall and split by which side ran first. It adds the median of the
per-pair log ratios ln(change/parent), as a percentage change, a bootstrap
95 % interval of that median (BOOTSTRAP resamples of the pairs, fixed seed,
so the file is reproducible) and the exact two-sided sign-test p of the
wins, ties dropped. The verdict reads "better" when the whole interval lies
on the better side of 0, "worse" when it lies on the worse side, else "no
detectable change"; the interval's half-width is then the least change the
set could have seen. Exits 1 if any run is incorrect or exits non-zero.

--null runs the parent against a second extraction of itself, in the
change's tree, and writes the same file: its intervals are the machine's
noise floor at that time, the least change a set of that many pairs can
see, and its verdicts should read "no detectable change".

--summarize recomputes and prints the summary of a written BENCH file, with
the end-to-end metrics of this checkout's BENCHMARK.json, and runs nothing.
"""
import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = os.path.join(ROOT, ".bench_build", "pairs")
SIDES = ("parent", "change")  # names of equal length
BOOTSTRAP, BOOTSTRAP_SEED = 4000, 1


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


def sign_test(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p of wins against losses."""
    tail = sum(math.comb(wins + losses, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** (wins + losses))


def ratio_interval(ratios: list) -> tuple:
    """The median of the per-pair log ratios and the 2.5 and 97.5 percentiles
    of the medians of BOOTSTRAP resamples of the pairs."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP))
    return (statistics.median(ratios), medians[round(0.025 * (BOOTSTRAP - 1))],
            medians[round(0.975 * (BOOTSTRAP - 1))])


def summarize(runs: list, better: dict) -> dict:
    """Per metric named in better ("lower" or "higher"), both sides' spreads,
    the relative change of the median, the gap between the medians in the
    change's favour and the pair wins: overall, parent first, change first;
    then the median per-pair change in percent, its bootstrap interval, the
    sign-test p of the wins and the verdict (module docstring)."""
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
        ratios = []  # ln(change/parent) of each pair
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
                if keep is None and min(got) > 0:
                    ratios.append(math.log(got[1] / got[0]))
            entry[key] = wins
        entry["sign_p"] = sign_test(entry["wins"]["change"], entry["wins"]["parent"])
        if ratios:
            middle, low, high = (100 * math.expm1(x) for x in ratio_interval(ratios))
            entry["median_ratio_pct"] = middle
            entry["ratio_interval_pct"] = [low, high]
            entry["interval_half_width_pct"] = (high - low) / 2
            entry["verdict"] = ("better" if max(sign * low, sign * high) < 0 else
                                "worse" if min(sign * low, sign * high) > 0 else
                                "no detectable change")
        summary[name] = entry
    return summary


def print_summary(path: str) -> None:
    """One line per workload and end-to-end metric of the BENCH file at path,
    its summary recomputed from its runs."""
    with open(path) as fh:
        doc = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    for workload, block in doc["workloads"].items():
        for name, entry in summarize(block["runs"], better).items():
            low, high = entry.get("ratio_interval_pct", (math.nan, math.nan))
            print(f"{workload} {name}: median {entry['parent']['median']:.4g} -> "
                  f"{entry['change']['median']:.4g}, per pair "
                  f"{entry.get('median_ratio_pct', math.nan):+.1f} % [{low:+.1f}, {high:+.1f}], "
                  f"wins {entry['wins']['change']}/{entry['wins']['pairs']}, "
                  f"sign p {entry['sign_p']:.3g}: {entry.get('verdict', 'no ratio')}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summarize", metavar="FILE")
    parser.add_argument("--parent")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--null", action="store_true",
                        help="run the parent against a second copy of itself")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads", nargs="+",
                        default=["sweep", "replay", "towers", "queries"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.summarize:
        print_summary(args.summarize)
        return 0
    if None in (args.parent, args.pairs, args.seconds, args.out):
        parser.error("--parent, --pairs, --seconds and --out are required without --summarize")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    if args.null:
        args.change = args.parent

    doc = {"command": "python3 perfbench/run.py --workload W --seed K+i-1 --seconds S "
                      "--trace 0 in git archive copies at paths of equal length, "
                      "parent first in odd pairs",
           "seconds": args.seconds, "pairs": args.pairs, "first_seed": args.first_seed,
           "null": args.null}
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
