"""Verification campaigns: one runnable claim per published statement.

Every claim is a sweep: it plans its shards and domain, supplies a check of
one shard, and says how the shards' tallies become equality cases and
extras; run_claim shards, sums and flattens. The shards are moduli e for the
per-modulus claims (theorem1, divisibility, lemma3, two_power, conjecture4,
corollary8, prop2, oracle), odd primes p for prop9, primes p = 1 (mod r) for
the order-r tower tables of prop14 and prop15, tower rows (p, n) for
example16 and example17, and n for corollary13 and remark12. A shard owns
all of its work (every q of its modulus, every q and k at its prime). Each
pool task returns the whole m tables it built (engine.cache_rows), which the
parent adopts in shard order, as it adopts a store's rows before the pool
forks, so no claim of the session searches or walks those moduli again until
engine.clear_cache() empties the cache. A per-modulus check reads the rows
of its modulus (engine.m_table_for_modulus: the ascending units q with their
m and n) and tests them as array predicates; corollary8 and prop2 pass only
the q their cases allow to the reference classifiers of classify. Reports
merge in shard order, which makes them identical regardless of worker count.
A run that makes no checks is a DomainError, never a vacuous pass. The
expected tables embedded below are claims under test, not trusted data:
every sweep recomputes them with the engine.
"""
from __future__ import annotations

import functools
import multiprocessing as mp
import os
import time
from typing import Any, Callable

import numpy as np

from . import engine
from .classify import conjecture4_k_min, corollary8_modulus, prop2_modulus
from .cyclo import corollary13_exceptions, threshold
from .errors import DomainError, UnknownClaim
from .modular import divisors, factorize, gcd_table, is_prime, rad, smallest_prime_divisor
from .report import VerificationReport
from .store import ResultStore
from .towers import check_prop9, ord_factorization, tower_rows, tower_sequence

__all__ = [
    "run_claim",
    "default_jobs",
    "list_claims",
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

def _run_chunk(fn: Callable, chunk: list) -> list[tuple[Any, list]]:
    """(fn(a), the tables a cached) for each a of chunk."""
    done = []
    for a in chunk:
        start = engine.cache_size()
        done.append((fn(a), engine.cache_rows(start)))
    return done


def _map_shards(fn: Callable, args: list, jobs: int) -> list:
    """Apply fn to each shard argument, in order.

    Shard cost grows along args (per-modulus work about as e^2), so the
    shards are dealt by stride to min(len(args), 8 * jobs) chunks,
    args[i::count], rather than cut into runs that leave the last one to one
    worker. Each pool task runs one chunk and returns, per shard, its payload
    and the tables it cached. The payloads are put back in shard order, and
    this process adopts the tables in that order, so its cache and the store
    rows come out as at jobs 1, and the workers of later claims inherit every
    table. The pool has no more workers than chunks."""
    if jobs <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    count = min(len(args), jobs * 8)
    done = [None] * len(args)
    chunks = [args[i::count] for i in range(count)]
    with mp.get_context("fork").Pool(min(jobs, count)) as pool:
        for i, results in enumerate(pool.imap(functools.partial(_run_chunk, fn), chunks)):
            done[i::count] = results
    engine.seed_cache([row for _, tables in done for row in tables])
    return [payload for payload, _ in done]


# ---------------------------------------------------------------------------
# claims: a plan of shards, and a check of one shard
#
# plan(params) -> (domain, shards). check(shard, params) -> (checks,
# violations, tally) runs on every shard, in pool workers when jobs > 1 (so
# it is a module-level function). finish(checks, tallies) turns the tallies,
# in shard order, into (equality_cases, extras); without it there are none.

def _upto(first: int, prefix: str) -> Callable[[dict], tuple[str, range]]:
    """The plan of moduli first..e_max, over the domain "<prefix>e <= e_max"."""
    return lambda params: (f"{prefix}e <= {params['e_max']}", range(first, params["e_max"] + 1))


def _violations(e: int, bad: np.ndarray, **columns: np.ndarray) -> list[dict]:
    """One violation of modulus e per row where bad holds, ascending in q,
    with the value of each named column in that row."""
    names = list(columns)
    picked = zip(*(columns[name][bad].tolist() for name in names))
    return [{"e": e, **dict(zip(names, row))} for row in picked]


def _theorem1_check(e: int, params: dict):
    """m <= ceil(e/n); the pairs 1 < q < e at equality are the tally. The sharp
    family e = 2(q-1), q odd (so e = 0 mod 4), must be among them."""
    q, mv, n = engine.m_table_for_modulus(e)
    bound = -(-e // n)
    violations = _violations(e, mv > bound, q=q, m=mv, bound=bound)
    equality = [(qq, e) for qq in q[(mv == bound) & (q > 1)].tolist()]
    if e % 4 == 0 and (e // 2 + 1, e) not in equality:
        violations.append({"q": e // 2 + 1, "e": e, "kind": "example7_family_missing"})
    return q.size, violations, equality


def _divisibility_check(e: int, params: dict):
    """e1 = gcd(e, q - 1) divides m. Where the dense exact-level search gives
    m this holds by construction: it tests only t = e1, 2 e1, ... (its check
    that every sum of terms h - 1 is a multiple of e1 is the premise, not the
    claim), and the evidence is the tests that compare it with the full-depth
    search and the naive oracle. The pair route (q = 1 and order 2), the
    m = 2 test, the coset route and the orbit engine do not use e1 (the
    last two take only q != 1 (mod p) at e = p^k, where e1 = 1). The m = 2
    test answers every class whose subgroup H holds -1; there every h
    in H is 1 (mod e1), so -1 = 1 (mod e1) and e1 divides 2 = m. A table
    walk also settles, with no search, each class of H without -1 whose
    maximal subgroups have least m equal to e1 ceil(3/e1): that value rests
    on e1 | m, the premise of this claim, so on those rows the claim holds by
    construction; the evidence there is the tests that compare every settled
    value at e <= 2049 with a search."""
    q, mv, _ = engine.m_table_for_modulus(e)
    e1 = gcd_table(e)[q - 1]
    return (q.size, _violations(e, mv % e1 != 0, q=q, m=mv, e1=e1),
            int(np.count_nonzero(mv == e1)))


def _e1_share(checks: int, tallies: list):
    hits = sum(tallies)
    return None, {"m_equals_e1": hits, "m_equals_e1_fraction": round(hits / max(checks, 1), 4)}


def _above_one(e: int):
    """The rows (q, m) of modulus e with q > 1, and e1 = gcd(e, q - 1) of each."""
    q, mv, _ = engine.m_table_for_modulus(e)
    q, mv = q[1:], mv[1:]  # q = 1 leads the rows of every e > 1
    return q, mv, gcd_table(e)[q - 1]


def _lemma3_check(e: int, params: dict):
    """m = e1 wherever e < e1^2 + 2 e1. The m of a row may come from the
    table walk's bounds rather than a search: a class without -1 whose
    maximal subgroups have least m equal to e1 ceil(3/e1) takes that m,
    which is e1 when e1 >= 3, so a row with e1 >= 3 can read m = e1 from the
    premise e1 | m and from its subgroups alone (see _divisibility_check)."""
    q, mv, e1 = _above_one(e)
    applies = e < e1 * e1 + 2 * e1
    return (q.size, _violations(e, applies & (mv != e1), q=q, m=mv, e1=e1),
            int(np.count_nonzero(applies)))


def _conjecture4_k(e: int) -> np.ndarray:
    """k[d] = conjecture4_k_min(e, d) for each divisor d of e, 0 elsewhere in
    [0, e]: e1 divides e, so the k of a row is k[e1]."""
    k = np.zeros(e + 1, dtype=np.int64)
    for d in divisors(factorize(e)):
        k[d] = conjecture4_k_min(e, d)
    return k


def _conjecture4_check(e: int, params: dict):
    q, mv, e1 = _above_one(e)
    k = _conjecture4_k(e)[e1]
    return q.size, _violations(e, mv > k * e1, q=q, m=mv, k_min=k, e1=e1), None


def _corollary8_check(e: int, params: dict):
    return (*corollary8_modulus(e), None)


def _prop2_check(e: int, params: dict):
    return (*prop2_modulus(e, params["r"]), None)


def _prop2_plan(params: dict) -> tuple[str, range]:
    r, e_min, e_max = params["r"], params["e_min"], params["e_max"]
    if r < 2:
        raise DomainError("prop2 needs r >= 2")
    return f"r={r}, {e_min} < e <= {e_max}", range(max(e_min + 1, 3), e_max + 1)


def _two_power_plan(params: dict) -> tuple[str, list]:
    k_max = params["k_max"]
    return f"odd q < 2^k, k <= {k_max}", [1 << k for k in range(1, k_max + 1)]


def _two_power_check(e: int, params: dict):
    k = e.bit_length() - 1
    qs, ms, _ = engine.m_table_for_modulus(e)
    violations = []
    for q, mv in zip(qs.tolist(), ms.tolist()):
        formula = engine.two_power_m(q, k)
        if formula != mv:
            violations.append({"q": q, "k": k, "formula": formula, "bfs": mv})
    return qs.size, violations, None


def _oracle_check(e: int, params: dict):
    qs, ms, _ = engine.m_table_for_modulus(e)
    violations = []
    for q, mv in zip(qs.tolist(), ms.tolist()):
        expected = engine.naive_m_oracle(q, e)
        if mv != expected:
            violations.append({"q": q, "e": e, "engine": mv, "oracle": expected})
    return qs.size, violations, None


def _prop9_plan(params: dict) -> tuple[str, list]:
    p_max, q_max, pk_cap = params["p_max"], params["q_max"], params["pk_cap"]
    return (f"odd p <= {p_max}, q <= {q_max}, p^k <= {pk_cap}, p | ord",
            [p for p in range(3, p_max + 1, 2) if is_prime(p)])


def _prop9_check(p: int, params: dict):
    q_max, pk_cap = params["q_max"], params["pk_cap"]
    checks = 0
    violations = []
    # (Z/p^k)* is cyclic for odd p, so ord_{p^k}(q) fixes <q>, and with it both
    # m values and the order one level down: one check per (k, order)
    verdicts: dict[tuple[int, int], bool] = {}
    for q in range(2, q_max + 1):
        if q % p == 0:
            continue
        k = 2
        while p**k <= pk_cap:
            i, d = ord_factorization(q, p, k)
            if i > 0:
                checks += 1
                key = (k, p**i * d)
                if key not in verdicts:
                    verdicts[key] = check_prop9(q, p, k)
                if not verdicts[key]:
                    violations.append({"q": q, "p": p, "k": k})
            k += 1
    return checks, violations, None


def _order_r_plan(r: int, exceptions: dict) -> Callable[[dict], tuple[str, list]]:
    """The primes p = 1 (mod r) up to p_max, and the p of every listed
    exception there, so a listed p that has no tower is reported too."""
    def plan(params):
        p_max = params["p_max"]
        primes = {p for p in range(r + 1, p_max + 1, r) if is_prime(p)}
        primes |= {p for p, _ in exceptions if p <= p_max}
        return f"order-{r} towers, p = 1 (mod {r}), p <= {p_max}", sorted(primes)
    return plan


def _order_r_check(p: int, params: dict, r: int, exceptions: dict):
    """m = r at every level of the order-r tower at p but the listed
    exceptions, each of which must be among its rows."""
    rows = tower_rows(p, r, params["k_cap"]) if p % r == 1 and is_prime(p) else []
    violations = [{"p": p, "k": k, "expected": exceptions.get((p, k), r), "actual": mv}
                  for _, k, mv in rows if mv != exceptions.get((p, k), r)]
    missing = {pk for pk in exceptions if pk[0] == p} - {(p, k) for _, k, _ in rows}
    violations += [{"p": p, "k": k, "kind": "exceptional_row_missing"}
                   for _, k in sorted(missing)]
    return len(rows), violations, None


def _tower_check(item, params: dict):
    (p, n), expected = item
    report = tower_sequence(p, n, len(expected))
    got = report.m_sequence
    violations = []
    if got != expected:
        violations.append({"p": p, "n": n, "expected": expected, "actual": got})
    return 1, violations, report.decreases


def _tower_decreases(checks: int, tallies: list):
    decreases = [k for ks in tallies for k in ks]
    return None, ({"tower_decreases": decreases} if decreases else {})


def _example16_plan(params: dict) -> tuple[str, list]:
    ns = sorted(set(params["ns"]))
    return (f"order-n towers, n in {ns}",
            sorted((pn, seq) for pn, seq in EXAMPLE16.items() if pn[1] in ns))


_COROLLARY13 = {n: {(p, k, m) for (p, k), m in table.items()}
                for n, table in ((5, PROP14_EXCEPTIONS), (7, PROP15_EXCEPTIONS))}


def _corollary13_plan(params: dict) -> tuple[str, list]:
    ns = sorted(set(params["ns"]))
    unlisted = sorted(set(ns) - set(_COROLLARY13))
    if unlisted:
        raise DomainError(f"corollary13 has no published exception set for n in {unlisted}")
    return f"exception sets for n in {ns}", ns


def _corollary13_check(n: int, params: dict):
    got = corollary13_exceptions(n)
    want = _COROLLARY13[n]
    violations = []
    if not got.complete:
        violations.append({"n": n, "kind": "incomplete", "unresolved": got.unresolved})
    if set(got.entries) != want:
        violations.append({
            "n": n, "kind": "entries",
            "expected": sorted(want), "actual": sorted(got.entries),
        })
    return 1, violations, None


def _remark12_check(n: int, params: dict):
    violations = []
    thr = threshold(n)
    r = smallest_prime_divisor(n)
    if thr != threshold(rad(n)):
        violations.append({"n": n, "kind": "radical_invariance"})
    if thr > r:
        violations.append({"n": n, "kind": "exceeds_smallest_prime"})
    if len(factorize(n)) == 1 and not thr > r - 1:
        violations.append({"n": n, "kind": "prime_power_lower_bound"})
    return 1, violations, None


# claim id -> (check, plan, finish, defaults, description)
_CLAIMS: dict[str, tuple[Callable, Callable, Callable | None, dict[str, Any], str]] = {
    "theorem1": (_theorem1_check, _upto(1, "coprime pairs, "),
                 lambda checks, tallies: ([pair for t in tallies for pair in t], {}),
                 {"e_max": 1000},
                 "m <= ceil(e/n) for all coprime pairs; equality cases collected"),
    "divisibility": (_divisibility_check, _upto(1, "coprime pairs, "), _e1_share,
                     {"e_max": 1000},
                     "e1 = gcd(e, q-1) divides m(q,e)"),
    "lemma3": (_lemma3_check, _upto(3, "1 < q < "),
               lambda checks, tallies: (None, {"applicable_pairs": sum(tallies)}),
               {"e_max": 600},
               "m = e1 whenever e < e1^2 + 2*e1"),
    "two_power": (_two_power_check, _two_power_plan, None, {"k_max": 12},
                  "closed form at e = 2^k equals BFS"),
    "conjecture4": (_conjecture4_check, _upto(3, "1 < q < "), None, {"e_max": 600},
                    "m <= k*e1 whenever e < (e1+1)^(k+1) - 1"),
    "corollary8": (_corollary8_check, _upto(3, "1 < q < e-1, "), None, {"e_max": 1224},
                   "the ten-case classification of m >= e/6 matches brute force"),
    "prop2": (_prop2_check, _prop2_plan, None, {"r": 6, "e_min": 1224, "e_max": 2000},
              "(a,b) parametrization of m >= e/r beyond r^4 - 2r^2"),
    "prop9": (_prop9_check, _prop9_plan, None, {"p_max": 50, "q_max": 50, "pk_cap": 100_000},
              "order drop and m equality one level down when p | ord"),
    "prop14": (functools.partial(_order_r_check, r=5, exceptions=PROP14_EXCEPTIONS),
               _order_r_plan(5, PROP14_EXCEPTIONS), None, {"p_max": 1000, "k_cap": 6},
               "order-5 towers: m = 5 except (11,1) -> 3 and (61,1) -> 4"),
    "prop15": (functools.partial(_order_r_check, r=7, exceptions=PROP15_EXCEPTIONS),
               _order_r_plan(7, PROP15_EXCEPTIONS), None, {"p_max": 2689, "k_cap": 6},
               "order-7 towers: m = 7 except thirteen listed (p, 1)"),
    "example16": (_tower_check, _example16_plan, _tower_decreases, {"ns": (11, 13, 17, 19)},
                  "prime-order tower sequences match the published tables"),
    "example17": (_tower_check, lambda params: (
                      "composite-order towers (r = 5 and r = 7 groups)",
                      sorted(EXAMPLE17_PAIRS.items()) + sorted(EXAMPLE17_SEQUENCES.items())),
                  None, {}, "composite-order tower values match the published tables"),
    "corollary13": (_corollary13_check, _corollary13_plan, None, {"ns": (5, 7)},
                    "cyclotomic candidate sift reproduces the exception sets"),
    "remark12": (_remark12_check,
                 lambda params: (f"2 <= n <= {params['n_max']}", range(2, params["n_max"] + 1)),
                 None, {"n_max": 10_000},
                 "threshold: radical-invariant, <= r, and > r-1 for prime powers"),
    "oracle": (_oracle_check, _upto(1, "all coprime pairs, "), None, {"e_max": 200},
               "BFS engine equals the naive DP oracle"),
}


def list_claims() -> dict[str, str]:
    return {cid: desc for cid, (*_, desc) in _CLAIMS.items()}


def default_jobs() -> int:
    """Worker count for a sweep when none is given: the CPUs this process may
    run on (its affinity mask), or the machine's count where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_claim(claim_id: str, params: dict[str, Any] | None = None,
              jobs: int = 1, store: str | None = None) -> VerificationReport:
    """Run one claim sweep: plan its shards, check them (in a pool when jobs >
    1), merge the results in shard order and add the new tables to the store.
    Results are deterministic in everything but wall time, whatever the
    worker count. A store seeds the cache with its tables as they are, and
    gains a record for each table the run built, at any jobs; values found
    outside tables (tower and witness paths) are not stored."""
    if claim_id not in _CLAIMS:
        raise UnknownClaim(f"unknown claim '{claim_id}' (known: {', '.join(sorted(_CLAIMS))})")
    check, plan, finish, defaults, _ = _CLAIMS[claim_id]
    merged = dict(defaults)
    if params:
        unknown = set(params) - set(defaults)
        if unknown:
            raise UnknownClaim(f"claim {claim_id} takes no parameter {sorted(unknown)}")
        merged.update({k: v for k, v in params.items() if v is not None})
    domain, shards = plan(merged)
    result_store = ResultStore(store) if store else None
    engine.seed_cache(result_store.cache_rows() if result_store else ())
    t0 = time.perf_counter()
    start = engine.cache_size()
    payloads = _map_shards(functools.partial(check, params=merged), list(shards), jobs)
    elapsed = time.perf_counter() - t0
    checks = sum(p[0] for p in payloads)
    if not checks:
        raise DomainError(f"claim {claim_id} makes no checks on {domain}")
    violations = [v for p in payloads for v in p[1]]
    equality, extras = finish(checks, [p[2] for p in payloads]) if finish else (None, {})
    if result_store is not None:
        result_store.add_rows(engine.cache_rows(start))
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
