"""One workload process: set up, run one timed pass, write the result as JSON.

Started by run.py as
    python3 perfbench/child.py '<json spec>'
with the spec keys build, workload, seed, mode ("setup", "pass" or
"fixture"), jobs, trace, store, out and t_spawn (the parent's
time.monotonic() just before the start, so set-up time counts from the fresh
process start). The program is imported from src/ of the checkout that
holds this file.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from math import gcd

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from msum import campaign, cyclo, engine, store, towers  # noqa: E402

import inputs  # noqa: E402
from published import COROLLARY13  # noqa: E402


def payload_digest(report) -> str:
    blob = json.dumps(report.payload(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def copy_store_cut(master: str, path: str, keep: set[int]) -> None:
    if os.path.exists(path):
        os.remove(path)
    cut = store.ResultStore(path)
    cut.add_rows([row for row in store.ResultStore(master).cache_rows() if row[0] in keep])
    cut.save()


def op(label: str, seconds: float, ok: bool, why: str = "", **extra) -> dict:
    return {"label": label, "s": seconds, "ok": ok, "why": why, **extra}


def run_campaign(claims, jobs: int, store_path: str | None) -> tuple[list, dict]:
    ops, digests = [], {}
    for claim, params in claims:
        t = time.perf_counter()
        report = campaign.run_claim(claim, params, jobs=jobs, store=store_path)
        dt = time.perf_counter() - t
        digests[claim] = payload_digest(report)
        ops.append(op(claim, dt, report.ok, "" if report.ok else "claim violated",
                      checks=report.checks))
    return ops, digests


def run_towers(rows) -> tuple[list, dict]:
    ops = []
    for row in rows:
        t = time.perf_counter()
        if row[0] == "tower":
            _, p, n, expected = row
            got = towers.tower_sequence(p, n, len(expected)).m_sequence
            dt = time.perf_counter() - t
            ops.append(op(f"tower({p},{n})", dt, got == tuple(expected),
                          "" if got == tuple(expected) else f"got {got}, published {expected}"))
        else:
            n = row[1]
            got = cyclo.corollary13_exceptions(n)
            dt = time.perf_counter() - t
            ok = got.complete and set(got.entries) == COROLLARY13[n]
            ops.append(op(f"corollary13({n})", dt, ok,
                          "" if ok else f"got {sorted(got.entries)}"))
    return ops, {}


def check_query(q: int, e: int, n: int, result) -> str:
    """Empty if the answer passes every check, else the reason it fails."""
    mv, wit = result.value, tuple(result.witness)
    if not engine.verify_witness(q, e, result):
        return "witness rejected by verify_witness"
    if len(wit) != mv or any(not 0 <= a < n for a in wit) or sum(pow(q, a, e) for a in wit) % e:
        return "witness is not a vanishing sum of m powers"
    if mv > -(-e // n):
        return f"m={mv} above ceil(e/n)"
    if mv % gcd(e, q - 1):
        return f"gcd(e, q-1) does not divide m={mv}"
    return ""


def run_queries(qs) -> tuple[list, dict]:
    ops, answers = [], []
    for q, e, n in qs:
        t = time.perf_counter()
        result = engine.m(q, e)
        dt = time.perf_counter() - t
        why = check_query(q, e, n, result)
        ops.append(op(f"m({q},{e})", dt, not why, why))
        answers.append((q, e, result.value))
    return ops, {"queries": hashlib.sha256(json.dumps(answers).encode()).hexdigest()}


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def main(spec: dict) -> None:
    workload, seed, mode = spec["workload"], spec["seed"], spec["mode"]
    result: dict = {}
    if mode == "fixture":
        # the replay store: every sweep claim at full scale, rows of all moduli
        tmp = spec["store"] + ".tmp"
        if os.path.exists(tmp):
            os.remove(tmp)
        for claim, params in inputs.full_scale_claims():
            campaign.run_claim(claim, params, jobs=spec["jobs"], store=tmp)
        os.replace(tmp, spec["store"])
        result["rows"] = len(store.ResultStore(spec["store"]))
    else:
        store_path = None
        if workload in ("sweep", "replay"):
            work = inputs.campaign_claims(seed)
            if workload == "replay":
                store_path = os.path.join(spec["build"], f"replay-{os.getpid()}.store")
                copy_store_cut(spec["store"], store_path, inputs.replay_moduli(seed))
        elif workload == "towers":
            work = inputs.tower_rows(seed)
        else:
            work = inputs.queries(seed)
        t_first = time.monotonic()
        result["setup_s"] = t_first - spec["t_spawn"]
        if mode == "pass":
            tracer = None
            if spec["trace"]:
                import spans

                tracer = spans.Tracer()
                spans.install(tracer)
            cache_before = engine.cache_size()
            if workload in ("sweep", "replay"):
                ops, digests = run_campaign(work, spec["jobs"], store_path)
            elif workload == "towers":
                ops, digests = run_towers(work)
            else:
                ops, digests = run_queries(work)
            result["wall_s"] = time.monotonic() - t_first
            result.update(ops=ops, digests=digests, peak_rss_mb=peak_rss_mb(),
                          cache_inserts=engine.cache_size() - cache_before)
            if tracer is not None:
                result["spans"] = tracer.summary()
                result["counters"] = tracer.counters
                tracer.dump(os.path.join(spec["build"], f"spans-{workload}.npz"))
        if store_path is not None:
            os.remove(store_path)
    tmp = spec["out"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["out"])


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
