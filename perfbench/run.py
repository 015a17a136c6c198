"""The msum benchmark.

    python3 perfbench/run.py --workload {sweep,replay,towers,queries,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
Every timed pass runs in a fresh child process (perfbench/child.py) under a
wall-time and an address-space limit, and every answer is checked. Lines
starting with "#" report each metric with its unit, the samples behind it,
the machine and a calibration loop; the last line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The exit
code is 1 when any answer check failed. README.md in this directory says what
each workload and metric is for.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "replay", "towers", "queries")
JOBS = {"sweep": 2, "replay": 1, "towers": 1, "queries": 1}  # at most 2 worker processes
# Seconds of --seconds that one pass stands for: about its time on a 2-core
# box, less for replay and queries, whose runs spread most over seeds unless
# they make more passes. A run makes seconds / PASS_S passes, at least one, so
# the count never depends on how fast the machine is.
PASS_S = {"sweep": 10, "replay": 6.5, "towers": 25, "queries": 0.6}
PASS_LIMIT_S = {"sweep": 90, "replay": 60, "towers": 120, "queries": 60, "fixture": 150}
RUN_LIMIT_S = 170  # a run must end within 180 s
AS_LIMIT_BYTES = 3 << 29  # 1.5 GiB of address space per workload process
SETUP_SAMPLES = 7
CLI_SAMPLES = 3
CALIBRATION_ITERS = 3_000_000
# tests/golden/m_4_7.txt at the commit that added the benchmark
CLI_EXPECTED = "m(4,7): m=3, witness 4^0+4^1+4^2\n  n=3 e1=1 ceil(e/n)=3\n  closed forms: none\n"
SWEEP_CLAIMS = sorted(inputs.CLAIM_SCALE)


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "msum")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def machine_record() -> dict:
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                sha = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def calibrate() -> float:
    """A fixed pure-Python loop; reported next to results, never used to rescale."""
    t = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERS):
        x += i
    return time.perf_counter() - t


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))


class Runner:
    """Starts guarded child processes for one workload run."""

    def __init__(self, build: str, store: str | None):
        self.build = build
        self.store = store
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.started = 0

    def child(self, workload: str, seed: int, mode: str, jobs: int = 1,
              trace: bool = False) -> tuple[dict | None, str]:
        """(result, "") or (None, why the process failed)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            return None, "no time left in the run"
        limit = min(PASS_LIMIT_S["fixture" if mode == "fixture" else workload], remaining)
        self.started += 1
        out = os.path.join(self.build, f"child-{os.getpid()}-{self.started}.json")
        if os.path.exists(out):
            os.remove(out)
        spec = {"build": self.build, "workload": workload, "seed": seed, "mode": mode,
                "jobs": jobs, "trace": trace, "store": self.store, "out": out,
                "t_spawn": time.monotonic()}
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=ROOT, stdout=sys.stderr, start_new_session=True, preexec_fn=_limit_child)
        why = ""
        try:
            code = proc.wait(timeout=limit)
            if code != 0:
                why = f"process exited with {code}"
        except subprocess.TimeoutExpired:
            why = f"killed at the {limit:.0f} s time limit"
        finally:
            try:  # the child's pool workers share its process group
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if why or not os.path.exists(out):
            return None, why or "no result written"
        with open(out) as fh:
            result = json.load(fh)
        os.remove(out)
        return result, ""


def ensure_fixture(build: str) -> str:
    """The replay store for this source tree, built once per checkout."""
    path = os.path.join(build, f"replay-{source_digest()[:16]}.store")
    if not os.path.exists(path):
        runner = Runner(build, path)
        result, why = runner.child("replay", 0, "fixture", jobs=JOBS["sweep"])
        if result is None:
            raise SystemExit(f"building the replay store failed: {why}")
    return path


def op_count(workload: str, seed: int) -> int:
    if workload in ("sweep", "replay"):
        return len(inputs.campaign_claims(seed))
    if workload == "towers":
        return len(inputs.tower_rows(seed))
    return len(inputs.queries(seed))


class Ledger:
    """Answer digests: recorded ones in digests.json and those seen earlier in
    this checkout must both match, so answers cannot change between runs."""

    def __init__(self, build: str):
        with open(os.path.join(HERE, "digests.json")) as fh:
            self.recorded = json.load(fh)
        self.path = os.path.join(build, "ledger.json")
        self.seen = {}
        if os.path.exists(self.path):
            with open(self.path) as fh:
                self.seen = json.load(fh)

    def check(self, key: str, digest: str) -> str:
        for source, table in (("recorded", self.recorded), ("earlier run", self.seen)):
            if table.get(key, digest) != digest:
                return f"answer digest {digest[:12]} differs from the {source} {table[key][:12]}"
        self.seen[key] = digest
        return ""

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.seen, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self, ledger: Ledger, workload: str, seed: int):
        self.ledger, self.workload, self.seed = ledger, workload, seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.failures.append(why)

    def add(self, result: dict | None, why: str) -> dict | None:
        """Count one pass's operations; a lost pass fails all of them."""
        if result is None:
            count = op_count(self.workload, self.seed)
            self.attempted += count
            self.fail(count, f"{count} operations lost: {why}")
            return None
        scope = "campaign" if self.workload in ("sweep", "replay") else self.workload
        bad = {}
        for key, digest in result["digests"].items():
            problem = self.ledger.check(f"{scope}:{self.seed}:{key}", digest)
            if problem:
                bad[key] = problem
        whole_pass = bad.get(self.workload, "")  # a digest over every answer of the pass
        for op in result["ops"]:
            self.attempted += 1
            problem = op["why"] or bad.get(op["label"]) or whole_pass
            if problem:
                self.fail(1, f"{op['label']}: {problem}")
        return result


def op_latencies(passes: list[dict]) -> list[float]:
    """Per operation, its median time over the passes."""
    return [statistics.median(p["ops"][i]["s"] for p in passes)
            for i in range(len(passes[0]["ops"]))]


def run_plain(runner: Runner, tally: Tally, workload: str, seed: int,
              seconds: int) -> tuple[dict, list[str]]:
    """Untraced passes for about `seconds`, each in a fresh process."""
    passes = []
    for _ in range(max(1, round(seconds / PASS_S[workload]))):
        result = tally.add(*runner.child(workload, seed, "pass", JOBS[workload]))
        if result is None:
            break
        passes.append(result)
    if not passes:
        return {}, []
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        result, why = runner.child(workload, seed, "setup")
        if result is None:
            tally.attempted += 1
            tally.fail(1, f"set-up: {why}")
            break
        setups.append(result["setup_s"])
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = [
        f"passes {len(passes)}: wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes),
        f"setup samples {len(setups)}: " + " ".join(f"{s:.3f}" for s in setups),
        f"input size: {len(passes[0]['ops'])} answers per pass"
        + (f", {sum(op['checks'] for op in passes[0]['ops'])} pairs checked"
           if workload in ("sweep", "replay") else ""),
    ]
    if workload == "queries":
        lat = op_latencies(passes)
        notes.append(f"query_p50_s = {statistics.median(lat):.6g} s, query_p75_s = "
                     f"{statistics.quantiles(lat, n=4)[2]:.6g} s over {len(lat)} queries, "
                     f"each the median of {len(passes)} passes")
    return metrics, notes


def cold_start(tally: Tally) -> float | None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    t = time.monotonic()
    try:
        out = subprocess.run([sys.executable, "-m", "msum", "m", "4", "7"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=20)
    except subprocess.TimeoutExpired:
        out = None
    dt = time.monotonic() - t
    tally.attempted += 1
    if out is None or out.returncode != 0 or out.stdout != CLI_EXPECTED:
        tally.fail(1, "msum m 4 7: wrong output, exit code or time-out")
        return None
    return dt


def _sum(spans: dict, prefix: str, key: str) -> float:
    return sum(v[key] for name, v in spans.items()
               if name == prefix or name.startswith(prefix + "."))


def layer_metrics(traced: dict, plain: dict, sweep_j2: dict | None,
                  cli: list[float]) -> dict:
    sp, counters = traced["spans"], traced["counters"]
    orbit = "engine.m_prime_power.orbit"
    out = {
        "engine.m_table_for_modulus.calls": _sum(sp, "engine.m_table_for_modulus", "calls"),
        "engine.m_table_for_modulus.self_s": _sum(sp, "engine.m_table_for_modulus", "self_s"),
        "engine.cache_inserts": traced["cache_inserts"] - counters.get("engine.cache_seeded", 0),
        "engine.m.dense.calls": _sum(sp, "engine.m.dense", "calls"),
        "engine.m.dense.self_s": _sum(sp, "engine.m.dense", "self_s"),
        "engine.m.orbit.calls": _sum(sp, "engine.m.orbit", "calls"),
        "engine.m.orbit.self_s": _sum(sp, "engine.m.orbit", "self_s"),
        "engine.verify_witness.self_s": _sum(sp, "engine.verify_witness", "self_s"),
        "engine.m_prime_power.dense.self_s": _sum(sp, "engine.m_prime_power.dense", "self_s"),
        f"{orbit}.self_s": _sum(sp, orbit, "self_s"),
        f"{orbit}.max_s": max([v["max_s"] for n, v in sp.items() if n.startswith(orbit)],
                              default=0.0),
        "modular.unit_subgroup.calls": _sum(sp, "modular.unit_subgroup", "calls"),
        "modular.unit_subgroup.self_s": _sum(sp, "modular.unit_subgroup", "self_s"),
        "modular.order.self_s": _sum(sp, "modular.order", "self_s"),
        "classify.classify_large.calls": _sum(sp, "classify.classify_large", "calls"),
        "classify.classify_large.self_s": _sum(sp, "classify.classify_large", "self_s"),
        "classify.star_params.self_s": _sum(sp, "classify.star_params", "self_s"),
        "classify.corollary8_modulus.self_s": _sum(sp, "classify.corollary8_modulus", "self_s"),
        "classify.prop2_modulus.self_s": _sum(sp, "classify.prop2_modulus", "self_s"),
        "towers.tower_sequence.calls": _sum(sp, "towers.tower_sequence", "calls"),
        "towers.tower_sequence.self_s": _sum(sp, "towers.tower_sequence", "self_s"),
        "cyclo.corollary13_exceptions.self_s": _sum(sp, "cyclo.corollary13_exceptions", "self_s"),
        "cyclo.candidate_scan.self_s": _sum(sp, "cyclo.candidate_scan", "self_s"),
        "cyclo.bezout_denominator.calls": _sum(sp, "cyclo.bezout_denominator", "calls"),
        "cyclo.bezout_denominator.self_s": _sum(sp, "cyclo.bezout_denominator", "self_s"),
        "campaign.run_claim.self_s": _sum(sp, "campaign.run_claim", "self_s"),
        "store.open.calls": _sum(sp, "store.open", "calls"),
        "store.open.s": _sum(sp, "store.open", "total_s"),
        "store.rows_loaded": counters.get("store.rows_loaded", 0),
        "store.save.s": _sum(sp, "store.save", "total_s"),
        "store.rows_written": counters.get("store.rows_written", 0),
        "store.bytes_written": counters.get("store.bytes_written", 0),
        "cli.cold_start_s": statistics.median(cli) if cli else 0.0,
        "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
    }
    for k in range(1, 5):
        out[f"{orbit}.level_{k}.self_s"] = _sum(sp, f"{orbit}.level_{k}", "self_s")
    claim_s = {op["label"]: op["s"] for op in sweep_j2["ops"]} if sweep_j2 else {}
    for claim in SWEEP_CLAIMS:
        out[f"campaign.run_claim.{claim}.s"] = claim_s.get(claim, 0.0)
    return out


def run_traced(runner: Runner, tally: Tally, workload: str, seed: int) -> tuple[dict, list[str]]:
    """One traced pass at jobs 1, the same pass untraced for the overhead and,
    on sweep, an untraced jobs-2 pass for the per-claim times."""
    traced = tally.add(*runner.child(workload, seed, "pass", 1, trace=True))
    plain = tally.add(*runner.child(workload, seed, "pass", 1))
    sweep_j2 = None
    if workload == "sweep":
        sweep_j2 = tally.add(*runner.child(workload, seed, "pass", JOBS["sweep"]))
    cli = [dt for dt in (cold_start(tally) for _ in range(CLI_SAMPLES)) if dt is not None]
    if traced is None or plain is None:
        return {}, []
    notes = [f"traced wall_s {traced['wall_s']:.3f} at jobs 1, untraced {plain['wall_s']:.3f}",
             f"spans written to {os.path.join(runner.build, f'spans-{workload}.npz')}"]
    return layer_metrics(traced, plain, sweep_j2, cli), notes


def run_workload(spec: dict, build: str, ledger: Ledger, workload: str, seed: int,
                 seconds: int, trace: bool) -> tuple[dict, Tally]:
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    store = ensure_fixture(build) if workload == "replay" else None
    runner = Runner(build, store)
    tally = Tally(ledger, workload, seed)
    if trace:
        metrics, notes = run_traced(runner, tally, workload, seed)
    else:
        metrics, notes = run_plain(runner, tally, workload, seed, seconds)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for note in notes:
        print(f"# {workload} {note}")
    for name in names:
        if name in metrics:
            print(f"# {workload} {name} = {metrics[name]:.6g} {units[name]}")
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"# {workload} fail_ratio = {fail_ratio:.6g} ({tally.failed} of {tally.attempted})")
    for failure in tally.failures[:20]:
        print(f"# {workload} FAILED {failure}")
    missing = set(names) - set(metrics)
    if missing and not tally.failures:
        raise SystemExit(f"benchmark bug: metrics not computed: {sorted(missing)}")
    return {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics}, tally


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "msum", "__init__.py")):
        print(f"no program at {os.path.join(ROOT, 'src', 'msum')}: run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(build, exist_ok=True)
    record = machine_record()
    calib = [calibrate()]
    ledger = Ledger(build)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        got, tally = run_workload(spec, build, ledger, workload, args.seed, args.seconds,
                                  bool(args.trace))
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += tally.attempted
        failed += tally.failed
    ledger.save()
    calib.append(calibrate())
    print(f"# machine {json.dumps(record, sort_keys=True)}")
    print(f"# calibration {CALIBRATION_ITERS} iterations: start {calib[0]:.3f} s, "
          f"end {calib[1]:.3f} s")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
