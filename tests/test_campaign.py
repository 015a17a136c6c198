import hashlib
import json
import multiprocessing as mp
from pathlib import Path

import pytest

from msum import campaign, cyclo, engine
from msum.campaign import (
    EXAMPLE16,
    claim_defaults,
    list_claims,
    run_claim,
)
from msum.errors import DomainError, UnknownClaim
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
    with pytest.raises(UnknownClaim):
        claim_defaults("nosuchclaim")


def test_reports_deterministic_across_worker_counts():
    for claim, golden in sorted(GOLDEN_PAYLOADS.items()):
        payloads = []
        for jobs in (1, 2):
            engine.clear_cache()  # the pool workers compute, not inherit
            payloads.append(run_claim(claim, golden["params"], jobs=jobs).payload())
        assert payloads[0] == payloads[1], claim


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
    rows = []
    for jobs in (1, 2):
        engine.clear_cache()
        if first:
            run_claim(*first, jobs=jobs)
        path = tmp_path / f"jobs{jobs}.bin"
        run_claim(claim, params, jobs=jobs, store=str(path))
        rows.append(ResultStore(path).tables)
    assert rows[0] == rows[1]
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
