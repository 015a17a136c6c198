import importlib.util
import json
import os
import random
import shutil
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _runs(parent, change):
    """Synthetic runs of one metric x: pair i holds parent[i] and change[i],
    the parent first in odd pairs, as the script orders them."""
    runs = []
    for pair, values in enumerate(zip(parent, change), start=1):
        first = "parent" if pair % 2 else "change"
        for side, x in zip(("parent", "change"), values):
            runs.append({"pair": pair, "seed": pair, "side": side, "first": side == first,
                         "metrics": {"x": x}, "correct": True, "exit": 0})
    return runs


def test_summary_of_synthetic_pairs():
    parent = [10, 12, 11, 13, 14, 10, 12, 15]
    change = [9, 12, 12, 11, 13, 9, 10, 14]
    got = bench_pairs.summarize(_runs(parent, change), {"x": "lower"})["x"]
    # inclusive quartiles: position (n - 1)/4 = 1.75 of the sorted values
    assert got["parent"] == {"median": 12, "q1": 10.75, "q3": 13.25, "iqr": 2.5}
    assert got["change"] == {"median": 11.5, "q1": 9.75, "q3": 12.25, "iqr": 2.5}
    assert got["median_gap"] == 0.5 and got["median_change"] == pytest.approx(-0.5 / 12)
    assert got["wins"] == {"change": 6, "parent": 1, "ties": 1, "pairs": 8}
    # odd pairs ran the parent first: pairs 1, 3, 5, 7
    assert got["wins_parent_first"] == {"change": 3, "parent": 1, "ties": 0, "pairs": 4}
    assert got["wins_change_first"] == {"change": 3, "parent": 0, "ties": 1, "pairs": 4}


def test_summary_of_a_metric_where_higher_is_better():
    got = bench_pairs.summarize(_runs([1, 2, 3], [2, 2, 5]), {"x": "higher"})["x"]
    assert got["median_gap"] == 0 and got["median_change"] == 0
    assert got["wins"] == {"change": 2, "parent": 0, "ties": 1, "pairs": 3}


def test_summary_skips_a_metric_without_two_samples_a_side():
    runs = _runs([1, 2, 3], [1, 2, 3])
    for run in runs[2:]:
        del run["metrics"]["x"]  # a run that failed reports no metrics
    assert bench_pairs.summarize(runs, {"x": "lower", "y": "lower"}) == {}


def test_a_change_faster_in_every_pair_reads_better():
    parent = [10, 12, 11, 13, 14, 10, 12, 15, 11, 13]
    got = bench_pairs.summarize(_runs(parent, [0.8 * x for x in parent]), {"x": "lower"})["x"]
    assert got["median_ratio_pct"] == pytest.approx(-20)
    assert got["ratio_interval_pct"] == pytest.approx([-20, -20])
    assert got["verdict"] == "better"


def test_no_difference_reads_no_detectable_change():
    parent = [10, 12, 11, 13, 14, 10, 12, 15, 11, 13]
    got = bench_pairs.summarize(_runs(parent, parent), {"x": "lower"})["x"]
    assert got["median_ratio_pct"] == 0 and got["ratio_interval_pct"] == [0, 0]
    assert got["sign_p"] == 1 and got["verdict"] == "no detectable change"


def test_verdict_and_sign_test_of_noisy_pairs():
    # ten wins of ten: p = 2 / 2^10; a higher-is-better metric that fell in
    # every pair reads worse
    parent = [10, 12, 11, 13, 14, 10, 12, 15, 11, 13]
    change = [x - 1 - i % 3 for i, x in enumerate(parent)]
    lower = bench_pairs.summarize(_runs(parent, change), {"x": "lower"})["x"]
    assert lower["wins"]["change"] == 10 and lower["sign_p"] == 2 / 1024
    assert lower["verdict"] == "better"
    higher = bench_pairs.summarize(_runs(parent, change), {"x": "higher"})["x"]
    assert higher["sign_p"] == 2 / 1024 and higher["verdict"] == "worse"
    # one loss in ten: p = 2 (1 + 10) / 2^10; ties are dropped
    assert bench_pairs.sign_test(9, 1) == 22 / 1024
    assert bench_pairs.sign_test(0, 0) == 1


def test_summarize_recomputes_a_committed_bench_file(capsys):
    bench_pairs.print_summary(str(SCRIPT.parents[1] / "BENCH_26.json"))
    lines = capsys.readouterr().out.splitlines()
    # four workloads, three end-to-end metrics each
    assert len(lines) == 12
    sweep = next(line for line in lines if line.startswith("sweep wall_s:"))
    assert "-15.6 % [-18.8, -11.2], wins 10/10, sign p 0.00195: better" in sweep


def test_null_runs_the_parent_against_itself(monkeypatch, tmp_path, capsys):
    # both sides are extractions of one revision; synthetic runs draw each
    # side's metrics from one distribution, so every verdict reads no change
    rng = random.Random(7)
    trees = []

    def fake_extract(sha, tree):
        os.makedirs(tree)
        shutil.copy(SCRIPT.parents[1] / "BENCHMARK.json", tree)
        trees.append((sha, tree))

    def fake_run(tree, workload, seed, seconds):
        metrics = {name: (1 + seed / 10) * rng.uniform(0.95, 1.05)
                   for name in ("wall_s", "setup_s", "peak_rss_mb")}
        return {"exit": 0, "correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: f"sha of {args[-1]}")
    monkeypatch.setattr(bench_pairs, "TREES", str(tmp_path / "pairs"))
    monkeypatch.setattr(bench_pairs, "extract", fake_extract)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "null.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--null", "--parent", "HEAD",
                                      "--change", "HEAD~1", "--pairs", "10", "--seconds", "1",
                                      "--workloads", "towers", "--out", str(out)])
    assert bench_pairs.main() == 0
    doc = json.loads(out.read_text())
    assert doc["null"] and doc["parent"]["sha"] == doc["change"]["sha"] == "sha of HEAD^{commit}"
    assert [sha for sha, _ in trees] == [doc["parent"]["sha"]] * 2
    assert [tree for _, tree in trees] == [str(tmp_path / "pairs" / side)
                                          for side in ("parent", "change")]
    summary = doc["workloads"]["towers"]["summary"]
    assert sorted(summary) == ["peak_rss_mb", "setup_s", "wall_s"]
    assert {entry["verdict"] for entry in summary.values()} == {"no detectable change"}
    capsys.readouterr()
    bench_pairs.print_summary(str(out))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(line.endswith(": no detectable change") for line in lines)
