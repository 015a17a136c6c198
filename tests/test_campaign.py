import hashlib
import json
import multiprocessing as mp
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from msum import campaign, cyclo, engine
from msum.campaign import (
    EXAMPLE16,
    list_claims,
    run_claim,
)
from msum.classify import classify_large, conjecture4_k_min, star_params
from msum.engine import two_power_m
from msum.errors import DomainError, MsumError, UnknownClaim
from msum.modular import divisors, factorize, gcd_table, mul_order
from msum.report import VerificationReport
from msum.store import ResultStore

# payload digests of every claim at small scale; the claims' params sit next
# to each digest
GOLDEN_PAYLOADS = json.loads(
    (Path(__file__).parent / "golden" / "claim_payloads.json").read_text())


def payload_digest(report) -> str:
    blob = json.dumps(report.payload(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_list_claims_covers_the_campaign():
    claims = list_claims()
    for cid in ["theorem1", "divisibility", "lemma3", "two_power", "conjecture4",
                "corollary8", "prop2", "prop9", "prop14", "prop15", "example16",
                "example17", "corollary13", "remark12", "oracle"]:
        assert cid in claims


def test_golden_digests_cover_every_claim():
    assert set(GOLDEN_PAYLOADS) == set(list_claims())


def test_unknown_claim():
    with pytest.raises(UnknownClaim):
        run_claim("nosuchclaim")
    with pytest.raises(UnknownClaim):
        run_claim("theorem1", {"bogus_param": 3})


def test_reports_deterministic_across_worker_counts():
    for claim, golden in sorted(GOLDEN_PAYLOADS.items()):
        payloads = []
        for jobs in (1, 2, 3):  # three workers deal the shards to strided chunks unevenly
            engine.clear_cache()  # the pool workers compute, not inherit
            payloads.append(run_claim(claim, golden["params"], jobs=jobs).payload())
        assert payloads[0] == payloads[1] == payloads[2], claim


@pytest.mark.parametrize("claim", sorted(GOLDEN_PAYLOADS))
def test_claim_payloads_match_golden_digests(claim):
    report = run_claim(claim, GOLDEN_PAYLOADS[claim]["params"], jobs=1)
    assert report.ok
    assert payload_digest(report) == GOLDEN_PAYLOADS[claim]["sha256"]


@pytest.mark.parametrize("claim, params, first", [
    pytest.param("theorem1", {"e_max": 80}, None, id="theorem1-params0"),
    pytest.param("two_power", {"k_max": 7}, None, id="two_power-params1"),
    pytest.param("example16", {"ns": (11,)}, None, id="example16-params2"),
    # a no-store claim earlier in the session memoizes the tables of e <= 50,
    # so the stored claim adds rows only for the moduli above
    pytest.param("divisibility", {"e_max": 80}, ("theorem1", {"e_max": 50}),
                 id="divisibility-after-theorem1"),
])
def test_store_rows_same_across_worker_counts(tmp_path, claim, params, first):
    rows, blobs = [], []
    for jobs in (1, 2, 3):
        engine.clear_cache()
        if first:
            run_claim(*first, jobs=jobs)
        path = tmp_path / f"jobs{jobs}.bin"
        run_claim(claim, params, jobs=jobs, store=str(path))
        rows.append({e: [column.tolist() for column in table]
                     for e, table in ResultStore(path).tables.items()})
        blobs.append(path.read_bytes() if path.exists() else None)
    assert rows[0] == rows[1] == rows[2]
    assert blobs[0] == blobs[1] == blobs[2]  # the records too come in shard order
    # tower values come from no m table, so example16 stores none
    assert bool(rows[0]) == (claim != "example16")
    if first:
        assert min(rows[0]) > first[1]["e_max"]


def test_session_order_claims_match_golden_digests():
    # back to back at jobs 2, each claim reading the tables earlier claims built
    engine.clear_cache()
    for claim, golden in sorted(GOLDEN_PAYLOADS.items()):
        report = run_claim(claim, golden["params"], jobs=2)
        assert payload_digest(report) == golden["sha256"], claim


def test_tables_from_pool_workers_serve_later_claims(monkeypatch):
    params = {"e_max": 150}
    engine.clear_cache()
    cold = run_claim("divisibility", params, jobs=1).payload()
    engine.clear_cache()
    run_claim("theorem1", params, jobs=2)

    def no_bfs(*args, **kwargs):
        raise RuntimeError("BFS ran for a memoized table")

    # forked pool workers inherit the patch, so a BFS there fails the run too
    monkeypatch.setattr(engine, "_bfs_dense", no_bfs)
    for jobs in (1, 2):
        assert run_claim("divisibility", params, jobs=jobs).payload() == cold, jobs
    engine.clear_cache()
    for jobs in (1, 2):
        with pytest.raises(RuntimeError, match="BFS ran"):
            run_claim("divisibility", params, jobs=jobs)


def test_no_worker_walks_a_modulus_twice(monkeypatch):
    params = {"e_max": 150}
    engine.clear_cache()
    cold = {claim: run_claim(claim, params, jobs=1).payload()
            for claim in ("divisibility", "conjecture4")}
    engine.clear_cache()
    run_claim("theorem1", params, jobs=2)

    def walk(q, e):
        raise RuntimeError(f"the classes of modulus {e} were walked again")

    # forked pool workers inherit the patch, so a walk there fails the run too
    monkeypatch.setattr(engine, "_powers_of", walk)
    for claim, payload in cold.items():
        assert run_claim(claim, params, jobs=2).payload() == payload, claim
    engine.clear_cache()
    with pytest.raises(RuntimeError, match="walked again"):
        run_claim("divisibility", params, jobs=2)
    engine.clear_cache()


@pytest.mark.parametrize("jobs", [1, 2])
def test_stored_moduli_are_neither_searched_nor_walked(tmp_path, monkeypatch, jobs):
    # in a fresh cache, a store-backed run adopts every stored table as it is
    engine.clear_cache()
    cold = {claim: run_claim(claim, {"e_max": 160}, jobs=1).payload()
            for claim in ("divisibility", "conjecture4", "corollary8")}
    engine.clear_cache()
    path = str(tmp_path / "store.bin")
    run_claim("theorem1", {"e_max": 150}, store=path)
    stored = set(ResultStore(path).tables)
    assert stored == set(range(1, 151))
    engine.clear_cache()
    fresh = []  # the moduli searched in this process: those above the store
    route, powers_of = engine._route, engine._powers_of

    def spy(real):
        def call(q, e, *args):
            if e in stored:  # forked pool workers inherit the patch and raise too
                raise RuntimeError(f"stored modulus {e} was searched or walked")
            fresh.append(e)
            return real(q, e, *args)
        return call

    monkeypatch.setattr(engine, "_route", spy(route))
    monkeypatch.setattr(engine, "_powers_of", spy(powers_of))
    for claim, payload in cold.items():
        assert run_claim(claim, {"e_max": 160}, jobs=jobs, store=path).payload() == payload
    if jobs == 1:  # the spy saw the moduli the store did not hold
        assert set(fresh) == set(range(151, 161))
    engine.clear_cache()


def test_claim_with_no_checks_is_a_domain_error():
    # prop2's default e_min is 1224, so e <= 300 leaves nothing to check
    with pytest.raises(DomainError):
        run_claim("prop2", {"e_max": 300})
    with pytest.raises(DomainError):
        run_claim("example16", {"ns": (5,)})


def test_corollary13_without_published_set_fails_before_scanning(monkeypatch):
    def no_scan(*args, **kwargs):
        raise RuntimeError("candidate scan started")

    monkeypatch.setattr(cyclo, "candidate_scan", no_scan)
    for ns in ((11,), (5, 11)):
        with pytest.raises(DomainError, match="no published exception set"):
            run_claim("corollary13", {"ns": ns})


def test_corollary13_sifts_each_n_once(monkeypatch):
    # a repeated n was sifted once per occurrence, as its own check
    sifted = []
    sift = campaign.corollary13_exceptions

    def spy(n):
        sifted.append(n)
        return sift(n)

    monkeypatch.setattr(campaign, "corollary13_exceptions", spy)
    report = run_claim("corollary13", {"ns": (7, 5, 5)})
    assert report.ok and report.checks == 2
    assert sorted(sifted) == [5, 7]
    assert report.domain == "exception sets for n in [5, 7]"


@pytest.mark.parametrize("claim, params, workers", [
    ("corollary13", {"ns": (5, 7)}, 2),
    ("remark12", {"n_max": 4}, 3),
])
def test_pool_has_no_more_workers_than_chunks(monkeypatch, claim, params, workers):
    sizes = []
    fork = mp.get_context("fork")

    class Spy:
        def Pool(self, processes):
            sizes.append(processes)
            return fork.Pool(processes)

    monkeypatch.setattr(campaign.mp, "get_context", lambda method: Spy())
    assert run_claim(claim, params, jobs=4).ok
    assert sizes == [workers]


def test_theorem1_tightness_scan():
    pairs = run_claim("theorem1", {"e_max": 8}).equality_cases
    assert (4, 7) in pairs
    assert (5, 8) in pairs
    assert (3, 4) in pairs  # q=3 member of the sharp family e = 2(q-1)
    assert run_claim("theorem1", {"e_max": 2}).equality_cases == []


def test_theorem1_equality_includes_sharp_family():
    report = run_claim("theorem1", {"e_max": 100})
    assert report.ok
    eq = set(map(tuple, report.equality_cases))
    for q in range(3, 52, 2):
        e = 2 * (q - 1)
        if 3 <= e <= 100:
            assert (q, e) in eq, (q, e)


def test_report_json_round_trip():
    report = run_claim("lemma3", {"e_max": 50})
    doc = json.loads(report.to_json())
    assert doc["claim_id"] == "lemma3"
    assert doc["ok"] is True
    assert doc["checks"] == report.checks
    assert "elapsed_seconds" in doc
    assert isinstance(doc["violations"], list)


def test_report_render_text():
    report = run_claim("lemma3", {"e_max": 50})
    text = report.render_text()
    assert "VERIFIED" in text and "lemma3" in text


def test_failure_report_renders_and_exits_nonzero_shape():
    bad = VerificationReport("demo", "nowhere", 1,
                             [{"q": 2, "e": 5, "kind": "synthetic"}])
    assert not bad.ok
    assert "VIOLATIONS FOUND" in bad.render_text()
    assert json.loads(bad.to_json())["ok"] is False


def test_store_round_trip_reuses_rows(tmp_path):
    path = tmp_path / "store.bin"
    engine.clear_cache()
    r1 = run_claim("divisibility", {"e_max": 60}, store=str(path))
    assert r1.ok
    st = ResultStore(path)
    n_rows = len(st)
    assert n_rows > 0
    # a second run must reuse every stored row and add none
    engine.clear_cache()
    r2 = run_claim("divisibility", {"e_max": 60}, store=str(path))
    assert r2.payload() == r1.payload()
    assert len(ResultStore(path)) == n_rows


def test_store_seed_gives_same_answers(tmp_path):
    path = tmp_path / "store.bin"
    engine.clear_cache()
    run_claim("theorem1", {"e_max": 40}, store=str(path))
    engine.clear_cache()
    engine.seed_cache(ResultStore(path).cache_rows())
    report = run_claim("theorem1", {"e_max": 40})
    assert report.ok


def test_example16_data_is_complete():
    assert len(EXAMPLE16) == 25
    assert EXAMPLE16[(23, 11)] == (3, 5, 9, 9, 11)
    assert all(seq[-1] == n for (_, n), seq in EXAMPLE16.items())



# (e, q) -> a wrong m for the generator class of q, seeded in place of the
# computed one; together they break every claim of test_claims_report_each_wrong_m.
# 65543 = 2^16 + 7 must not read as 7.
WRONG_M = {(24, 5): 23, (32, 3): 2, (35, 4): 6, (40, 3): 11, (48, 5): 12, (48, 25): 6,
           (60, 7): 65543, (61, 2): 31}
ROWS_CLAIMS = {
    "theorem1": {"e_max": 64},
    "divisibility": {"e_max": 64},
    "lemma3": {"e_max": 64},
    "conjecture4": {"e_max": 64},
    "two_power": {"k_max": 6},
    "corollary8": {"e_max": 64},
    "prop2": {"r": 2, "e_min": 8, "e_max": 64},
}


def _pair_table(e: int, values) -> dict[int, tuple[int, int, int]]:
    """q -> (m, n, class) over the units of e from class values in walk
    order: the per-pair table the claims read before they took rows, walked
    with pow and mul_order."""
    table: dict[int, tuple[int, int, int]] = {}
    classes = 0
    for q in range(1, e):
        if q in table or gcd(q, e) != 1:
            continue
        n = mul_order(q, e)
        for j in range(n):
            if gcd(j, n) == 1:
                table[pow(q, j, e)] = (values[classes], n, classes)
        classes += 1
    assert classes == len(values), e
    return table


def _reference_report(claim: str, tables: dict) -> tuple[list, object]:
    """(violations, equality cases or extras) of one claim by a loop over the
    pairs of its moduli, as the claims ran before they became array
    predicates."""
    r = ROWS_CLAIMS["prop2"]["r"]
    violations, tally = [], []
    for e, table in tables.items():
        for q in sorted(table):
            mv, n, _ = table[q]
            e1 = gcd(e, q - 1)
            if claim == "theorem1":
                bound = -(-e // n)
                if mv > bound:
                    violations.append({"q": q, "e": e, "m": mv, "bound": bound})
                if mv == bound and q > 1:
                    tally.append([q, e])
            elif claim == "divisibility":
                if mv % e1:
                    violations.append({"q": q, "e": e, "m": mv, "e1": e1})
                tally.append(mv == e1)
            elif claim == "lemma3" and q > 1 and e < e1 * e1 + 2 * e1:
                tally.append(q)
                if mv != e1:
                    violations.append({"q": q, "e": e, "m": mv, "e1": e1})
            elif claim == "conjecture4" and q > 1:
                k = conjecture4_k_min(e, e1)
                if mv > k * e1:
                    violations.append({"q": q, "e": e, "m": mv, "k_min": k, "e1": e1})
            elif claim == "two_power":
                k = e.bit_length() - 1
                if two_power_m(q, k) != mv:
                    violations.append({"q": q, "k": k, "formula": two_power_m(q, k), "bfs": mv})
            elif claim == "corollary8" and 1 < q < e - 1:
                case = classify_large(q, e)
                large = 6 * mv >= e
                if large != (case.tag != "none"):
                    violations.append({"q": q, "e": e, "m": mv, "kind": "dichotomy",
                                       "expected": "case" if large else "none",
                                       "actual": case.tag})
                elif case.tag != "none" and case.m_predicted != mv:
                    violations.append({"q": q, "e": e, "kind": "prediction", "case": case.tag,
                                       "expected": case.m_predicted, "actual": mv})
            elif claim == "prop2" and q > 1:
                sp = star_params(q, e, r)
                if sp is not None and not (mv == e1 == e // sp.a and mv * r >= e):
                    violations.append({"q": q, "e": e, "kind": "direction_i",
                                       "a": sp.a, "b": sp.b, "e1": e1, "m": mv})
                if e > r**4 - 2 * r * r and mv * r >= e and sp is None:
                    violations.append({"q": q, "e": e, "kind": "direction_ii", "m": mv})
        if claim == "theorem1" and e % 4 == 0 and [e // 2 + 1, e] not in tally:
            violations.append({"q": e // 2 + 1, "e": e, "kind": "example7_family_missing"})
    if claim == "theorem1":
        return violations, tally
    if claim == "divisibility":
        hits = sum(tally)
        return violations, {"m_equals_e1": hits, "m_equals_e1_fraction": round(hits / len(tally), 4)}
    if claim == "lemma3":
        return violations, {"applicable_pairs": len(tally)}
    return violations, None


@pytest.fixture
def wrong_m_tables():
    """Seed the class values of WRONG_M over the built rows of e <= 64;
    yields the per-pair tables those values give, and empties the cache after."""
    engine.clear_cache()
    for e in range(1, 65):
        engine.m_table_for_modulus(e)
    rows = {e: (values.copy(), cls, order) for e, values, cls, order in engine.cache_rows(0)}
    for (e, q), wrong in WRONG_M.items():
        mv, _, cls = _pair_table(e, rows[e][0])[q]
        assert mv != wrong, (e, q)
        rows[e][0][cls] = wrong
    engine.clear_cache()  # a seeded row may not replace a held table
    engine.seed_cache((e, *row) for e, row in rows.items())
    yield {e: _pair_table(e, values) for e, (values, *_) in rows.items()}
    engine.clear_cache()


@pytest.mark.parametrize("claim", sorted(ROWS_CLAIMS))
def test_claims_report_each_wrong_m(wrong_m_tables, claim):
    report = run_claim(claim, ROWS_CLAIMS[claim])
    shards = campaign._CLAIMS[claim][1](ROWS_CLAIMS[claim])[1]
    violations, tally = _reference_report(claim, {e: wrong_m_tables[e] for e in shards})
    assert violations, claim  # the wrong values are seen at all
    assert report.violations == violations
    if claim == "theorem1":
        assert [list(pair) for pair in report.equality_cases] == tally
    elif tally is not None:
        assert report.extras == tally


def test_seeded_row_that_differs_from_a_held_table_raises():
    # m is a function of (e, class): a differing row is a bad store row or an
    # engine fault, and must neither replace the table nor reach a claim
    engine.clear_cache()
    held = engine.m_table_for_modulus(7)
    [(e, values, cls, order)] = engine.cache_rows(0)
    # the values, the class of each unit or the order of each class
    for wrong in ((values + 1, cls, order), (values, cls[::-1].copy(), order),
                  (values, cls, order * 2)):
        with pytest.raises(MsumError, match="modulus 7"):
            engine.seed_cache([(e, *wrong)])
    assert [column.tolist() for column in engine.cache_rows(0)[0][1:]] == \
        [values.tolist(), cls.tolist(), order.tolist()]
    engine.seed_cache([(e, values, cls.astype(np.uint16), order)])  # equal at another width
    assert engine.m_table_for_modulus(7).m.tolist() == held.m.tolist()
    assert run_claim("divisibility", {"e_max": 7}).ok
    engine.clear_cache()


def test_conjecture4_k_table_equals_k_min_for_every_e1():
    for e in range(3, 2050):
        k = campaign._conjecture4_k(e)
        e1 = gcd_table(e)[np.arange(1, e) - 1]  # the e1 of every q in [1, e)
        assert set(e1.tolist()) <= set(divisors(factorize(e)))
        for d in divisors(factorize(e)):
            assert k[d] == conjecture4_k_min(e, d), (e, d)
