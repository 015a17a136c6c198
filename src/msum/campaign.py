"""Verification campaigns: one runnable, shardable sweep per claim.

Sharding is by modulus e (a shard owns every q for its e), so the subgroup
cache never needs to cross worker boundaries. Reports merge in input order,
which makes them identical regardless of worker count. The expected tables
embedded below are claims under test, not trusted data: every sweep recomputes
them with the engine.
"""
from __future__ import annotations

import functools
import multiprocessing as mp
import os
import time
from math import gcd
from typing import Any, Callable

from . import engine
from .classify import conjecture4_k_min, corollary8_modulus, prop2_modulus
from .cyclo import corollary13_exceptions, threshold
from .errors import UnknownClaim
from .modular import factorize, is_prime, rad, smallest_prime_divisor
from .report import VerificationReport
from .store import ResultStore
from .towers import (
    check_prop9,
    ord_factorization,
    prop14_table,
    prop15_table,
    tower_sequence,
)

__all__ = [
    "run_claim",
    "default_jobs",
    "list_claims",
    "theorem1_tightness_scan",
    "EXAMPLE16",
    "EXAMPLE17_PAIRS",
    "EXAMPLE17_SEQUENCES",
    "PROP14_EXCEPTIONS",
    "PROP15_EXCEPTIONS",
]

# --- expected values, copied from the source tables and re-verified by sweeps

PROP14_EXCEPTIONS = {(11, 1): 3, (61, 1): 4}

PROP15_EXCEPTIONS = {
    (43, 1): 3,
    (29, 1): 4, (71, 1): 4, (547, 1): 4,
    (113, 1): 5, (197, 1): 5, (421, 1): 5, (463, 1): 5,
    (211, 1): 6, (379, 1): 6, (449, 1): 6, (757, 1): 6, (2689, 1): 6,
}

EXAMPLE16 = {
    (23, 11): (3, 5, 9, 9, 11),
    (67, 11): (4, 8, 11),
    (89, 11): (4, 9, 11),
    (199, 11): (6, 11),
    (353, 11): (5, 11),
    (397, 11): (5, 11),
    (53, 13): (3, 7, 12, 13),
    (79, 13): (4, 8, 12, 13),
    (157, 13): (4, 8, 12, 13),
    (131, 13): (4, 8, 13),
    (313, 13): (5, 10, 13),
    (521, 13): (7, 13),
    (547, 13): (5, 13),
    (677, 13): (5, 13),
    (937, 13): (5, 13),
    (911, 13): (6, 13),
    (239, 17): (3, 9, 15, 17),
    (307, 17): (4, 9, 14, 17),
    (409, 17): (5, 10, 15, 17),
    (613, 17): (5, 10, 17),
    (919, 17): (5, 12, 17),
    (953, 17): (4, 11, 17),
    (229, 19): (5, 8, 11, 19),
    (571, 19): (4, 9, 16, 19),
    (761, 19): (5, 7, 17, 19),
}

# (p, n) -> (m at p, m at p^2); the third group of 17(i) states only m at p
EXAMPLE17_PAIRS = {
    (71, 35): (3, 5), (101, 25): (3, 5), (131, 65): (3, 5), (211, 35): (3, 5),
    (281, 35): (3, 5), (521, 65): (3, 5), (571, 95): (3, 5), (631, 35): (3, 5),
    (911, 35): (3, 5),
    (421, 35): (4, 5), (491, 35): (4, 5), (701, 35): (4, 5), (761, 95): (4, 5),
    (911, 65): (4, 5), (1051, 35): (4, 5), (1471, 35): (4, 5), (2311, 35): (4, 5),
    (2521, 35): (4, 5), (2591, 35): (4, 5), (2731, 35): (4, 5), (3221, 35): (4, 5),
    (3361, 35): (4, 5), (3571, 35): (4, 5), (3851, 35): (4, 5),
    (1151, 25): (5,), (1201, 25): (5,), (1301, 25): (5,), (1801, 25): (5,),
    (2381, 35): (5,), (2801, 35): (5,), (2861, 55): (5,), (3011, 35): (5,),
}

EXAMPLE17_SEQUENCES = {
    (239, 119): (3, 4, 6, 7),
    (547, 91): (3, 4, 7),
    (911, 91): (4, 6, 7),
}


# ---------------------------------------------------------------------------
# parallel plumbing

def _with_journal(fn, arg):
    engine.journal_start()
    out = fn(arg)
    return out, engine.journal_drain()


def _map_shards(fn: Callable, args: list, jobs: int) -> tuple[list, list]:
    """Apply fn to each shard argument, in order; returns (payloads, cache rows)."""
    wrapped = functools.partial(_with_journal, fn)
    if jobs <= 1 or len(args) <= 1:
        results = [wrapped(a) for a in args]
    else:
        ctx = mp.get_context("fork")
        chunk = max(1, len(args) // (jobs * 8))
        with ctx.Pool(jobs) as pool:
            results = list(pool.imap(wrapped, args, chunksize=chunk))
    payloads = [r[0] for r in results]
    rows: list = []
    for r in results:
        rows.extend(r[1])
    return payloads, rows


# ---------------------------------------------------------------------------
# per-shard workers (module level so they fork cleanly)

def _theorem1_worker(e: int):
    table = engine.m_table_for_modulus(e)
    checks = 0
    violations = []
    equality = []
    for q in sorted(table):
        mv, n = table[q]
        checks += 1
        bound = -(-e // n)
        if mv > bound:
            violations.append({"q": q, "e": e, "m": mv, "bound": bound})
        if mv == bound and 1 < q < e:
            equality.append((q, e))
    return checks, violations, equality


def _divisibility_worker(e: int):
    table = engine.m_table_for_modulus(e)
    checks = 0
    violations = []
    m_eq_e1 = 0
    for q in sorted(table):
        mv, _ = table[q]
        checks += 1
        e1 = gcd(e, q - 1)
        if mv % e1:
            violations.append({"q": q, "e": e, "m": mv, "e1": e1})
        if mv == e1:
            m_eq_e1 += 1
    return checks, violations, m_eq_e1


def _lemma3_worker(e: int):
    table = engine.m_table_for_modulus(e)
    checks = 0
    violations = []
    applicable = 0
    for q in range(2, e):
        got = table.get(q)
        if got is None:
            continue
        checks += 1
        e1 = gcd(e, q - 1)
        if e < e1 * e1 + 2 * e1:
            applicable += 1
            if got[0] != e1:
                violations.append({"q": q, "e": e, "m": got[0], "e1": e1})
    return checks, violations, applicable


def _conjecture4_worker(e: int):
    table = engine.m_table_for_modulus(e)
    checks = 0
    violations = []
    for q in range(2, e):
        got = table.get(q)
        if got is None:
            continue
        checks += 1
        e1 = gcd(e, q - 1)
        k = conjecture4_k_min(e, e1)
        if got[0] > k * e1:
            violations.append({"q": q, "e": e, "m": got[0], "k_min": k, "e1": e1})
    return checks, violations


def _prop2_worker(e: int, r: int):
    return prop2_modulus(e, r)


def _oracle_worker(e: int):
    table = engine.m_table_for_modulus(e)
    checks = 0
    violations = []
    for q in sorted(table):
        checks += 1
        expected = engine.naive_m_oracle(q, e)
        if table[q][0] != expected:
            violations.append({"q": q, "e": e, "engine": table[q][0], "oracle": expected})
    return checks, violations


def _example16_worker(item):
    (p, n), expected = item
    report = tower_sequence(p, n, len(expected))
    got = report.m_sequence
    violations = []
    if got != expected:
        violations.append({"p": p, "n": n, "expected": expected, "actual": got})
    return 1, violations, report.decreases


# ---------------------------------------------------------------------------
# claim runners: (params, jobs) -> (domain, checks, violations, equality, extras, rows)

def _run_theorem1(params, jobs):
    e_max = params["e_max"]
    payloads, rows = _map_shards(_theorem1_worker, list(range(1, e_max + 1)), jobs)
    checks = sum(p[0] for p in payloads)
    violations = [v for p in payloads for v in p[1]]
    equality = [pair for p in payloads for pair in p[2]]
    eq_set = set(equality)
    q = 3
    while 2 * (q - 1) <= e_max:
        if 2 * (q - 1) >= 3 and (q, 2 * (q - 1)) not in eq_set:
            violations.append({"q": q, "e": 2 * (q - 1), "kind": "example7_family_missing"})
        q += 2
    equality.sort(key=lambda t: (t[1], t[0]))
    return (f"coprime pairs, e <= {e_max}", checks, violations, equality, {}, rows)


def _run_divisibility(params, jobs):
    e_max = params["e_max"]
    payloads, rows = _map_shards(_divisibility_worker, list(range(1, e_max + 1)), jobs)
    checks = sum(p[0] for p in payloads)
    violations = [v for p in payloads for v in p[1]]
    m_eq_e1 = sum(p[2] for p in payloads)
    extras = {"m_equals_e1": m_eq_e1, "m_equals_e1_fraction": round(m_eq_e1 / max(checks, 1), 4)}
    return (f"coprime pairs, e <= {e_max}", checks, violations, None, extras, rows)


def _run_lemma3(params, jobs):
    e_max = params["e_max"]
    payloads, rows = _map_shards(_lemma3_worker, list(range(3, e_max + 1)), jobs)
    checks = sum(p[0] for p in payloads)
    violations = [v for p in payloads for v in p[1]]
    extras = {"applicable_pairs": sum(p[2] for p in payloads)}
    return (f"1 < q < e <= {e_max}", checks, violations, None, extras, rows)


def _run_conjecture4(params, jobs):
    e_max = params["e_max"]
    payloads, rows = _map_shards(_conjecture4_worker, list(range(3, e_max + 1)), jobs)
    checks = sum(p[0] for p in payloads)
    violations = [v for p in payloads for v in p[1]]
    return (f"1 < q < e <= {e_max}", checks, violations, None, {}, rows)


def _run_corollary8(params, jobs):
    e_max = params["e_max"]
    payloads, rows = _map_shards(corollary8_modulus, list(range(3, e_max + 1)), jobs)
    checks = sum(p[0] for p in payloads)
    violations = [v for p in payloads for v in p[1]]
    return (f"1 < q < e-1, e <= {e_max}", checks, violations, None, {}, rows)


def _run_prop2(params, jobs):
    r, e_min, e_max = params["r"], params["e_min"], params["e_max"]
    worker = functools.partial(_prop2_worker, r=r)
    payloads, rows = _map_shards(worker, list(range(max(e_min + 1, 3), e_max + 1)), jobs)
    checks = sum(p[0] for p in payloads)
    violations = [v for p in payloads for v in p[1]]
    return (f"r={r}, {e_min} < e <= {e_max}", checks, violations, None, {}, rows)


def _run_two_power(params, jobs):
    k_max = params["k_max"]
    checks = 0
    violations = []
    for k in range(1, k_max + 1):
        e = 1 << k
        table = engine.m_table_for_modulus(e)
        for q in sorted(table):
            checks += 1
            formula = engine.two_power_m(q, k)
            if formula != table[q][0]:
                violations.append({"q": q, "k": k, "formula": formula, "bfs": table[q][0]})
    return (f"odd q < 2^k, k <= {k_max}", checks, violations, None, {}, [])


def _run_prop9(params, jobs):
    p_max, q_max, pk_cap = params["p_max"], params["q_max"], params["pk_cap"]
    checks = 0
    violations = []
    for p in range(3, p_max + 1, 2):
        if not is_prime(p):
            continue
        for q in range(2, q_max + 1):
            if q % p == 0:
                continue
            k = 2
            while p**k <= pk_cap:
                i, d = ord_factorization(q, p, k)
                if i > 0:
                    checks += 1
                    if not check_prop9(q, p, k):
                        violations.append({"q": q, "p": p, "k": k})
                k += 1
    return (
        f"odd p <= {p_max}, q <= {q_max}, p^k <= {pk_cap}, p | ord",
        checks, violations, None, {}, [],
    )


def _table_claim(rows_fn, exceptions, default_m, domain):
    rows = rows_fn()
    checks = 0
    violations = []
    seen_exceptions = set()
    for p, k, mv in rows:
        checks += 1
        expected = exceptions.get((p, k), default_m)
        if (p, k) in exceptions:
            seen_exceptions.add((p, k))
        if mv != expected:
            violations.append({"p": p, "k": k, "expected": expected, "actual": mv})
    missing = set(exceptions) - seen_exceptions
    for p, k in sorted(missing):
        violations.append({"p": p, "k": k, "kind": "exceptional_row_missing"})
    return checks, violations


def _run_prop14(params, jobs):
    p_max, k_cap = params["p_max"], params["k_cap"]
    exceptions = {pk: m for pk, m in PROP14_EXCEPTIONS.items() if pk[0] <= p_max}
    checks, violations = _table_claim(
        lambda: prop14_table(p_max, k_cap), exceptions, 5, None)
    return (f"order-5 towers, p = 1 (mod 5), p <= {p_max}", checks, violations,
            None, {}, [])


def _run_prop15(params, jobs):
    p_max, k_cap = params["p_max"], params["k_cap"]
    exceptions = {pk: m for pk, m in PROP15_EXCEPTIONS.items() if pk[0] <= p_max}
    checks, violations = _table_claim(
        lambda: prop15_table(p_max, k_cap), exceptions, 7, None)
    return (f"order-7 towers, p = 1 (mod 7), p <= {p_max}", checks, violations,
            None, {}, [])


def _run_example16(params, jobs):
    ns = set(params["ns"])
    items = sorted((pn, seq) for pn, seq in EXAMPLE16.items() if pn[1] in ns)
    payloads, rows = _map_shards(_example16_worker, items, jobs)
    checks = sum(p[0] for p in payloads)
    violations = [v for p in payloads for v in p[1]]
    decreases = [d for p in payloads for d in p[2]]
    extras = {"tower_decreases": decreases} if decreases else {}
    return (f"order-n towers, n in {sorted(ns)}", checks, violations, None, extras, rows)


def _run_example17(params, jobs):
    pair_items = sorted((pn, seq) for pn, seq in EXAMPLE17_PAIRS.items())
    seq_items = sorted((pn, seq) for pn, seq in EXAMPLE17_SEQUENCES.items())
    payloads, rows = _map_shards(_example16_worker, pair_items + seq_items, jobs)
    checks = sum(p[0] for p in payloads)
    violations = [v for p in payloads for v in p[1]]
    return ("composite-order towers (r = 5 and r = 7 groups)", checks, violations,
            None, {}, rows)


def _run_corollary13(params, jobs):
    expected = {
        5: {(11, 1, 3), (61, 1, 4)},
        7: {(p, k, m) for (p, k), m in PROP15_EXCEPTIONS.items()},
    }
    checks = 0
    violations = []
    for n in params["ns"]:
        checks += 1
        got = corollary13_exceptions(n)
        want = expected.get(n)
        if want is None:
            violations.append({"n": n, "kind": "no_expected_list"})
            continue
        if not got.complete:
            violations.append({"n": n, "kind": "incomplete", "unresolved": got.unresolved})
        if set(got.entries) != want:
            violations.append({
                "n": n, "kind": "entries",
                "expected": sorted(want), "actual": sorted(got.entries),
            })
    return (f"exception sets for n in {list(params['ns'])}", checks, violations,
            None, {}, [])


def _run_remark12(params, jobs):
    n_max = params["n_max"]
    checks = 0
    violations = []
    for n in range(2, n_max + 1):
        checks += 1
        thr = threshold(n)
        r = smallest_prime_divisor(n)
        if thr != threshold(rad(n)):
            violations.append({"n": n, "kind": "radical_invariance"})
        if thr > r:
            violations.append({"n": n, "kind": "exceeds_smallest_prime"})
        if len(factorize(n)) == 1 and not thr > r - 1:
            violations.append({"n": n, "kind": "prime_power_lower_bound"})
    return (f"2 <= n <= {n_max}", checks, violations, None, {}, [])


def _run_oracle(params, jobs):
    e_max = params["e_max"]
    payloads, rows = _map_shards(_oracle_worker, list(range(1, e_max + 1)), jobs)
    checks = sum(p[0] for p in payloads)
    violations = [v for p in payloads for v in p[1]]
    return (f"all coprime pairs, e <= {e_max}", checks, violations, None, {}, rows)


_CLAIMS: dict[str, tuple[Callable, dict[str, Any], str]] = {
    "theorem1": (_run_theorem1, {"e_max": 1000},
                 "m <= ceil(e/n) for all coprime pairs; equality cases collected"),
    "divisibility": (_run_divisibility, {"e_max": 1000},
                     "e1 = gcd(e, q-1) divides m(q,e)"),
    "lemma3": (_run_lemma3, {"e_max": 600},
               "m = e1 whenever e < e1^2 + 2*e1"),
    "two_power": (_run_two_power, {"k_max": 12},
                  "closed form at e = 2^k equals BFS"),
    "conjecture4": (_run_conjecture4, {"e_max": 600},
                    "m <= k*e1 whenever e < (e1+1)^(k+1) - 1"),
    "corollary8": (_run_corollary8, {"e_max": 1224},
                   "the ten-case classification of m >= e/6 matches brute force"),
    "prop2": (_run_prop2, {"r": 6, "e_min": 1224, "e_max": 2000},
              "(a,b) parametrization of m >= e/r beyond r^4 - 2r^2"),
    "prop9": (_run_prop9, {"p_max": 50, "q_max": 50, "pk_cap": 100_000},
              "order drop and m equality one level down when p | ord"),
    "prop14": (_run_prop14, {"p_max": 1000, "k_cap": 6},
               "order-5 towers: m = 5 except (11,1) -> 3 and (61,1) -> 4"),
    "prop15": (_run_prop15, {"p_max": 2689, "k_cap": 6},
               "order-7 towers: m = 7 except thirteen listed (p, 1)"),
    "example16": (_run_example16, {"ns": (11, 13, 17, 19)},
                  "prime-order tower sequences match the published tables"),
    "example17": (_run_example17, {},
                  "composite-order tower values match the published tables"),
    "corollary13": (_run_corollary13, {"ns": (5, 7)},
                    "cyclotomic candidate sift reproduces the exception sets"),
    "remark12": (_run_remark12, {"n_max": 10_000},
                 "threshold: radical-invariant, <= r, and > r-1 for prime powers"),
    "oracle": (_run_oracle, {"e_max": 200},
               "BFS engine equals the naive DP oracle"),
}


def list_claims() -> dict[str, str]:
    return {cid: desc for cid, (_, _, desc) in _CLAIMS.items()}


def claim_defaults(claim_id: str) -> dict[str, Any]:
    if claim_id not in _CLAIMS:
        raise UnknownClaim(claim_id)
    return dict(_CLAIMS[claim_id][1])


def default_jobs() -> int:
    """Worker count for a sweep when none is given: the CPUs this process may
    run on (its affinity mask), or the machine's count where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_claim(claim_id: str, params: dict[str, Any] | None = None,
              jobs: int = 1, store: str | None = None) -> VerificationReport:
    """Run one claim sweep. Results are deterministic in everything but wall
    time, whatever the worker count."""
    if claim_id not in _CLAIMS:
        raise UnknownClaim(claim_id)
    runner, defaults, _ = _CLAIMS[claim_id]
    merged = dict(defaults)
    if params:
        unknown = set(params) - set(defaults)
        if unknown:
            raise UnknownClaim(f"claim {claim_id} takes no parameter {sorted(unknown)}")
        merged.update({k: v for k, v in params.items() if v is not None})
    result_store = ResultStore(store) if store else None
    if result_store is not None:
        engine.seed_cache(result_store.cache_rows())
    t0 = time.perf_counter()
    engine.journal_start()
    domain, checks, violations, equality, extras, rows = runner(merged, jobs)
    rows = engine.journal_drain() + rows
    elapsed = time.perf_counter() - t0
    if result_store is not None:
        result_store.add_rows(rows)
        result_store.save()
    return VerificationReport(
        claim_id=claim_id,
        domain=domain,
        checks=checks,
        violations=violations,
        elapsed=elapsed,
        params=merged,
        equality_cases=equality,
        extras=extras,
    )


def theorem1_tightness_scan(e_max: int, jobs: int = 1) -> list[tuple[int, int]]:
    """All pairs (q, e) with 1 < q < e <= e_max where m equals ceil(e/n)."""
    payloads, _ = _map_shards(_theorem1_worker, list(range(3, e_max + 1)), jobs)
    out = [pair for p in payloads for pair in p[2]]
    out.sort(key=lambda t: (t[1], t[0]))
    return out
