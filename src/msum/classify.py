"""Structural classification of pairs with large m.

Implements the (a,b) parametrization of pairs with m >= e/r, the full
ten-case analysis of m >= e/6 (three of the cases are finite lists, kept as
data and re-verified against the engine by the test suite), and the least k
of the k*e1 conjecture. The lemma3 and conjecture4 claims of msum.campaign
check the small-modulus criterion m = e1 and the conjecture over whole tables.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .engine import m_table_for_modulus
from .errors import ClassificationOverlap, DomainError, NotCoprime

__all__ = [
    "StarParams",
    "Corollary8Case",
    "LIST_M2",
    "LIST_N2_DOUBLE",
    "LIST_SMALL",
    "star_params",
    "classify_large",
    "corollary8_modulus",
    "prop2_modulus",
    "conjecture4_k_min",
]


@dataclass(frozen=True)
class StarParams:
    """Coprime (a, b) with b < a <= r, ab <= q, and e*b = a*(q-1)."""

    a: int
    b: int


@dataclass(frozen=True)
class Corollary8Case:
    """Classifier outcome: a case tag i..x, its parameters, and the predicted m."""

    tag: str  # one of "i".."x" or "none"
    params: StarParams | None = None
    m_predicted: int | None = None


# Finite exception lists of the m >= e/6 classification. These are claims to
# test, not axioms: the test suite recomputes every entry with the engine.

# m = 2 cases, as {e: [q, ...]}
LIST_M2 = {
    5: (2, 3),
    7: (3, 5),
    9: (2, 5),
    10: (3, 7),
    11: (2, 6, 7, 8),
}

# n = 2 with m = 2*e1 > 2, as (e, q) pairs
LIST_N2_DOUBLE = (
    (8, 3), (15, 4), (16, 7), (21, 13), (24, 5), (24, 11), (33, 10),
    (35, 6), (40, 29), (45, 26), (48, 7), (55, 21), (63, 8), (77, 43),
    (80, 9), (99, 10), (120, 11),
)

# remaining small exceptions, as {e: (qs, m)}
LIST_SMALL = {
    7: ((2, 4), 3),
    11: ((3, 4, 5, 9), 3),
    13: ((3, 9), 3),
    14: ((9, 11), 4),
    15: ((2, 8), 4),
    16: ((3, 11), 4),
    20: ((3, 7), 4),
    22: ((3, 5, 9, 15), 4),
    26: ((3, 9), 6),
    48: ((5, 29), 8),
}

# Parametric families (ii)..(vii): ratio e/(q-1) = a/b plus side conditions on q.
_FAMILIES = (
    ("ii", 3, 2, lambda q: q >= 7 and gcd(6, q) == 1),
    ("iii", 4, 3, lambda q: q >= 13 and q % 6 == 1),
    ("iv", 5, 2, lambda q: q >= 7 and gcd(10, q) == 1),
    ("v", 5, 3, lambda q: q >= 7 and gcd(5, q) == 1 and q % 3 == 1),
    ("vi", 5, 4, lambda q: q >= 13 and gcd(5, q) == 1 and q % 4 == 1),
    ("vii", 6, 5, lambda q: q >= 16 and gcd(6, q) == 1 and q % 5 == 1),
)


_NONE = Corollary8Case("none")


def star_params(q: int, e: int, r: int) -> StarParams | None:
    """The unique (a, b) candidate a = e/e1, b = (q-1)/e1, if it satisfies
    gcd(a,b) = 1, b < a <= r, ab <= q, and e*b = a*(q-1); otherwise None."""
    if not 1 < q < e:
        raise DomainError("star parametrization requires 1 < q < e")
    if gcd(q, e) != 1:
        raise NotCoprime(f"gcd({q},{e}) != 1")
    e1 = gcd(e, q - 1)
    a, b = e // e1, (q - 1) // e1
    ok = (
        gcd(a, b) == 1
        and b < a <= r
        and a * b <= q
        and e * b == a * (q - 1)
    )
    return StarParams(a, b) if ok else None


def classify_large(q: int, e: int) -> Corollary8Case:
    """The matching case of the m >= e/6 classification, or tag "none".

    Finite lists are consulted before the parametric families and win on a
    double match. The cases are not quite disjoint -- (e, q) = (10, 7) sits
    in both the m = 2 list and family (v) -- so an overlap is only an error
    when the matched cases disagree about m.
    """
    if gcd(q, e) != 1:
        raise NotCoprime(f"gcd({q},{e}) != 1")
    if not 1 < q < e - 1:
        raise DomainError("classification requires 1 < q < e-1")

    matches: list[Corollary8Case] = []
    if q in LIST_M2.get(e, ()):
        matches.append(Corollary8Case("viii", None, 2))
    if (e, q) in LIST_N2_DOUBLE:
        matches.append(Corollary8Case("ix", None, 2 * gcd(e, q - 1)))
    qs, mx = LIST_SMALL.get(e, ((), 0))
    if q in qs:
        matches.append(Corollary8Case("x", None, mx))
    # case (i): e = a(q-1) with integer a in 2..6
    if e % (q - 1) == 0:
        a = e // (q - 1)
        if 2 <= a <= 6 and q >= a + 1 and gcd(a, q) == 1:
            matches.append(Corollary8Case("i", StarParams(a, 1), q - 1))
    for tag, a, b, cond in _FAMILIES:
        if e * b == a * (q - 1) and cond(q):
            matches.append(Corollary8Case(tag, StarParams(a, b), e // a))
    if not matches:
        return Corollary8Case("none")
    if len({c.m_predicted for c in matches}) > 1:
        raise ClassificationOverlap(
            f"(q={q}, e={e}) matched {[c.tag for c in matches]} with conflicting m"
        )
    return matches[0]


def conjecture4_k_min(e: int, e1: int) -> int:
    """Least k >= 1 with e < (e1+1)^(k+1) - 1."""
    k = 1
    bound = (e1 + 1) ** 2 - 1
    while e >= bound:
        k += 1
        bound = bound * (e1 + 1) + e1
    return k


def _corollary8_candidates(e: int) -> list[int]:
    """The ascending coprime 1 < q < e-1 that some case of the m >= e/6
    classification can match at modulus e: the finite lists, case (i)
    q = e/a + 1 for a | e with 2 <= a <= 6, and q = 1 + b*e/a for each
    family (a, b), coprime, so a | e. classify_large answers "none" for every
    other q."""
    qs = set(LIST_M2.get(e, ())) | {q for e2, q in LIST_N2_DOUBLE if e2 == e}
    qs.update(LIST_SMALL.get(e, ((), 0))[0])
    qs.update(e // a + 1 for a in range(2, 7) if e % a == 0)
    qs.update(1 + b * e // a for _, a, b, _ in _FAMILIES if e % a == 0)
    return sorted(q for q in qs if 1 < q < e - 1 and gcd(q, e) == 1)


def _prop2_candidates(e: int, r: int) -> list[int]:
    """The ascending coprime 1 < q < e with e*b = a*(q-1) for some coprime
    b < a <= r, so a | e: the only q that star_params(q, e, r) can accept."""
    qs = {1 + b * e // a for a in range(2, r + 1) if e % a == 0
          for b in range(1, a) if gcd(a, b) == 1}
    return sorted(q for q in qs if 1 < q < e and gcd(q, e) == 1)


def corollary8_modulus(e: int) -> tuple[int, list[dict]]:
    """One modulus worth of the m >= e/6 classification sweep: over the coprime
    1 < q < e-1 the classifier must match brute force exactly, both in the
    m >= e/6 dichotomy and in the predicted values. Returns (checks,
    violations).

    classify_large judges only the candidates of _corollary8_candidates;
    every other q is case "none", and breaks the dichotomy iff 6*m >= e."""
    qs, ms, _ = m_table_for_modulus(e)
    inner = (qs > 1) & (qs < e - 1)
    qs, ms = qs[inner], ms[inner]
    cases = {c: classify_large(c, e) for c in _corollary8_candidates(e)}
    judged = 6 * ms >= e
    judged[np.searchsorted(qs, list(cases))] = True  # every candidate is among qs
    violations = []
    for q, mv in zip(qs[judged].tolist(), ms[judged].tolist()):
        case = cases.get(q, _NONE)
        large = 6 * mv >= e
        if large != (case.tag != "none"):
            violations.append({
                "q": q, "e": e, "m": mv, "kind": "dichotomy",
                "expected": "case" if large else "none", "actual": case.tag,
            })
        elif case.tag != "none" and case.m_predicted != mv:
            violations.append({
                "q": q, "e": e, "kind": "prediction", "case": case.tag,
                "expected": case.m_predicted, "actual": mv,
            })
    return qs.size, violations


def prop2_modulus(e: int, r: int) -> tuple[int, list[dict]]:
    """One modulus worth of the (a,b)-parametrization sweep: direction (i) for
    every pair admitting the parametrization and, where e > r^4 - 2r^2, the
    converse for every pair with m >= e/r. Returns (checks, violations).

    star_params judges only the candidates of _prop2_candidates; it rejects
    every other q."""
    cutoff = r**4 - 2 * r * r
    qs, ms, _ = m_table_for_modulus(e)
    qs, ms = qs[1:], ms[1:]  # q = 1 leads the rows of every e > 1
    params = {c: star_params(c, e, r) for c in _prop2_candidates(e, r)}
    judged = r * ms >= e if e > cutoff else np.zeros(qs.size, dtype=bool)
    judged[np.searchsorted(qs, list(params))] = True  # every candidate is among qs
    violations: list[dict] = []
    for q, mv in zip(qs[judged].tolist(), ms[judged].tolist()):
        sp = params.get(q)
        e1 = gcd(e, q - 1)
        if sp is not None:
            if not (mv == e1 == e // sp.a and mv * r >= e):
                violations.append({
                    "q": q, "e": e, "kind": "direction_i",
                    "a": sp.a, "b": sp.b, "e1": e1, "m": mv,
                })
        if e > cutoff and mv * r >= e and sp is None:
            violations.append({
                "q": q, "e": e, "kind": "direction_ii", "m": mv,
            })
    return qs.size, violations
