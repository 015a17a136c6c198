from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msum import campaign
from msum.campaign import run_claim
from msum.classify import (
    LIST_M2,
    LIST_N2_DOUBLE,
    LIST_SMALL,
    StarParams,
    _corollary8_candidates,
    _prop2_candidates,
    classify_large,
    conjecture4_k_min,
    star_params,
)
from msum.engine import is_m_two, m_value
from msum.errors import DomainError
from msum.modular import instance, mul_order


def _units_above_one(e):
    return [q for q in range(2, e) if gcd(q, e) == 1]


def _lemma3_applies(q, e):
    """The premise of Lemma 3 for a coprime pair 1 < q < e: e < e1^2 + 2*e1."""
    inst = instance(q, e)
    return inst.e < inst.e1 * inst.e1 + 2 * inst.e1


def _assert_lemma3_claim_matches(e):
    """The lemma3 claim's check of modulus e against a loop over its pairs:
    the same checks, the same violating q and the same applicable count."""
    qs = _units_above_one(e)
    applies = [q for q in qs if _lemma3_applies(q, e)]
    wrong = [q for q in applies if m_value(q, e) != instance(q, e).e1]
    checks, violations, count = campaign._lemma3_check(e, {})
    assert (checks, [v["q"] for v in violations], count) == (len(qs), wrong, len(applies)), e


def test_lemma3_examples():
    assert _lemma3_applies(5, 8)
    assert m_value(5, 8) == instance(5, 8).e1 == 4
    assert not _lemma3_applies(2, 5)
    # e1(4,7) = gcd(7,3) = 1, so the inequality 7 < 3 fails
    assert not _lemma3_applies(4, 7)
    assert campaign._lemma3_check(8, {})[2] == 1  # q = 5 alone
    for e in (5, 7, 8):
        _assert_lemma3_claim_matches(e)


def test_lemma3_conclusion_holds_when_applicable():
    for e in range(3, 250):
        for q in _units_above_one(e):
            if _lemma3_applies(q, e):
                assert m_value(q, e) == instance(q, e).e1, (q, e)
        _assert_lemma3_claim_matches(e)


def test_star_params_examples():
    assert star_params(7, 9, 6) == StarParams(3, 2)
    assert star_params(5, 8, 6) == StarParams(2, 1)
    assert star_params(2, 5, 6) is None


def test_star_params_against_exhaustive_search():
    for e in range(3, 80):
        for q in range(2, e):
            if gcd(q, e) != 1:
                continue
            for r in (2, 4, 6):
                brute = None
                for a in range(1, r + 1):
                    for b in range(1, a):
                        if (gcd(a, b) == 1 and a * b <= q
                                and e * b == a * (q - 1)):
                            brute = StarParams(a, b)
                assert star_params(q, e, r) == brute, (q, e, r)


def test_star_params_domain():
    with pytest.raises(DomainError):
        star_params(1, 9, 6)
    with pytest.raises(DomainError):
        star_params(9, 9, 6)


def test_classify_examples():
    case = classify_large(13, 16)
    assert case.tag == "iii" and case.m_predicted == 4 == m_value(13, 16)
    case = classify_large(13, 21)
    assert case.tag == "ix" and case.m_predicted == 6 == m_value(13, 21)
    case = classify_large(9, 26)
    assert case.tag == "x" and case.m_predicted == 6 == m_value(9, 26)
    case = classify_large(7, 16)
    assert case.tag == "ix" and case.m_predicted == 4
    assert classify_large(2, 13).tag == "none"  # m = 2 < 13/6


def test_classify_overlap_pair_resolved_by_list_priority():
    # (10, 7) sits in both the m=2 list and family (v); predictions agree
    case = classify_large(7, 10)
    assert case.tag == "viii" and case.m_predicted == 2 == m_value(7, 10)


def test_classify_domain_errors():
    with pytest.raises(DomainError):
        classify_large(1, 9)
    with pytest.raises(DomainError):
        classify_large(8, 9)


def test_exception_lists_reverified_against_engine():
    for e, qs in LIST_M2.items():
        for q in qs:
            assert m_value(q, e) == 2
            assert is_m_two(instance(q, e))
    for e, q in LIST_N2_DOUBLE:
        e1 = gcd(e, q - 1)
        assert mul_order(q, e) == 2
        assert m_value(q, e) == 2 * e1 > 2
    for e, (qs, mx) in LIST_SMALL.items():
        for q in qs:
            assert m_value(q, e) == mx


def _exceptional_pairs():
    out = []
    for e, qs in LIST_M2.items():
        out.extend((e, q, 2) for q in qs)
    for e, q in LIST_N2_DOUBLE:
        out.append((e, q, 2 * gcd(e, q - 1)))
    for e, (qs, mx) in LIST_SMALL.items():
        out.extend((e, q, mx) for q in qs)
    return out


@pytest.mark.parametrize("c", [2, 3, 4, 5, 6])
def test_largest_exceptional_case(c):
    qualifying = [(e, q) for e, q, mv in _exceptional_pairs() if mv * c >= e]
    cap = 4 * c * c - 4 * c
    assert all(e <= cap for e, _ in qualifying)
    assert (cap, 2 * c - 1) in qualifying


def _conjecture4(q, e):
    """(k_min, holds) for a coprime pair 1 < q < e: whether m(q, e) <= k*e1
    at the least k with e < (e1+1)^(k+1) - 1."""
    e1 = instance(q, e).e1
    k_min = conjecture4_k_min(e, e1)
    return k_min, m_value(q, e) <= k_min * e1


def _assert_conjecture4_claim_matches(e):
    """The conjecture4 claim's check of modulus e against a loop over its
    pairs: the same checks and the same violating q."""
    qs = _units_above_one(e)
    wrong = [q for q in qs if not _conjecture4(q, e)[1]]
    checks, violations, _ = campaign._conjecture4_check(e, {})
    assert (checks, [v["q"] for v in violations]) == (len(qs), wrong), e


def test_conjecture4_examples():
    assert _conjecture4(5, 8) == (1, True)
    assert _conjecture4(2, 5) == (2, True)
    for e in (5, 8):
        _assert_conjecture4_claim_matches(e)


@given(st.integers(2, 60))
def test_conjecture4_when_e1_is_q_minus_1(q):
    # e = 2(q-1) has e1 = q-1 when q is odd; the claim is proven there
    if q % 2 == 0:
        return
    e = 2 * (q - 1)
    if e > q and gcd(q, e) == 1:
        _, holds = _conjecture4(q, e)
        assert holds
        _assert_conjecture4_claim_matches(e)


def test_verify_corollary8_small():
    report = run_claim("corollary8", {"e_max": 60})
    assert report.ok and report.checks > 0


def test_verify_prop2_r2():
    report = run_claim("prop2", {"r": 2, "e_min": 8, "e_max": 300})
    assert report.ok and report.checks > 0


def test_verify_prop2_rejects_bad_r():
    with pytest.raises(DomainError):
        run_claim("prop2", {"r": 1, "e_min": 8, "e_max": 100})


def test_candidate_sets_hold_every_classified_pair():
    # corollary8_modulus and prop2_modulus call the reference classifiers only
    # on their candidates and take every other q as unmatched; here the
    # reference judges every pair
    for e in range(3, 1225):
        units = [q for q in range(2, e) if gcd(q, e) == 1]
        candidates = _corollary8_candidates(e)
        assert candidates == sorted(set(candidates)) and set(candidates) <= set(units)
        cased = {q for q in units if q < e - 1 and classify_large(q, e).tag != "none"}
        assert cased <= set(candidates), (e, sorted(cased - set(candidates)))
        for r in (2, 3, 6):
            hits = {q for q in units if star_params(q, e, r) is not None}
            assert hits <= set(_prop2_candidates(e, r)), (e, r)
