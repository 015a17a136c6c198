"""Prime-power moduli: order factorizations, tower sequences, and their limits.

Two regimes are kept apart. A fixed base q walked up p, p^2, ... has
nondecreasing m that freezes once the order starts growing (at w, the p-adic
valuation of q^n - 1). A tower with a fresh generator of the same order n at
every level keeps the order pinned at n and its m climbs to the smallest
prime divisor of n; the level where it arrives is the searched-for K.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .engine import DENSE_LIMIT, _route, m_prime_power
from .errors import DomainError, NotFoundWithinCap
from .modular import (
    element_of_order,
    is_prime,
    order_mod_prime_power,
    p_adic_w,
    require_odd_prime,
    smallest_prime_divisor,
)

__all__ = [
    "TowerLevel",
    "TowerReport",
    "FixedBaseLevel",
    "FixedBaseTower",
    "ord_factorization",
    "check_prop9",
    "fixed_base_tower",
    "tower_sequence",
    "prop10_search",
    "tower_rows",
    "prop14_table",
    "prop15_table",
]


@dataclass(frozen=True)
class TowerLevel:
    k: int
    modulus: int
    generator: int
    ord: int
    m: int
    w: int


@dataclass(frozen=True)
class TowerReport:
    """Per-level data for an order-n tower with a fresh generator each level."""

    p: int
    n: int
    levels: tuple[TowerLevel, ...]
    limit: int
    K_hit: int | None
    decreases: tuple[int, ...]  # levels where m dropped; interesting, not an error

    @property
    def m_sequence(self) -> tuple[int, ...]:
        return tuple(lv.m for lv in self.levels)


@dataclass(frozen=True)
class FixedBaseLevel:
    k: int
    modulus: int
    ord_i: int  # ord = p^ord_i * ord_d
    ord_d: int
    ord: int
    m: int
    source: str  # the route engine._route named, "closed_form" (q = 1 mod p) or "stability"


@dataclass(frozen=True)
class FixedBaseTower:
    q: int
    p: int
    w: int | None  # None only for q = 1
    entries: tuple[FixedBaseLevel, ...]

    @property
    def m_sequence(self) -> tuple[int, ...]:
        return tuple(en.m for en in self.entries)


def ord_factorization(q: int, p: int, k: int) -> tuple[int, int]:
    """(i, d) with ord_{p^k}(q) = p^i * d and d | p-1."""
    require_odd_prime(p)
    if q % p == 0:
        raise DomainError(f"p={p} divides q={q}")
    n = order_mod_prime_power(q, p, k)
    i = 0
    while n % p == 0:
        n //= p
        i += 1
    if (p - 1) % n != 0:
        raise DomainError(f"order factorization broke: d={n} does not divide p-1")
    return i, n


def check_prop9(q: int, p: int, k: int) -> bool:
    """With ord_{p^k}(q) = p^i*d, i > 0: verify numerically that the order
    drops to p^(i-1)*d one level down and that m is unchanged."""
    if k < 2:
        raise DomainError("k must be >= 2")
    i, d = ord_factorization(q, p, k)
    if i == 0:
        raise DomainError("order is prime to p; nothing to check")
    ord_below = order_mod_prime_power(q, p, k - 1)
    if ord_below != p ** (i - 1) * d:
        return False
    return m_prime_power(q, p, k)[0] == m_prime_power(q, p, k - 1)[0]


def fixed_base_tower(q: int, p: int, k_max: int) -> FixedBaseTower:
    """The table (ord, m) of a fixed base q at p, p^2, ..., p^k_max.

    Levels past both w and the dense range are filled by the proven
    stability m(q, p^k) = m(q, p^w) and tagged "stability"; everything else
    is computed outright by engine._route and tagged with the name of the
    route that answered ("pair", "m_two", "coset", "bitmask", "label" or
    "orbit").
    """
    require_odd_prime(p)
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    if q % p == 0:
        raise DomainError(f"p={p} divides q={q}")
    n1 = order_mod_prime_power(q, p, 1)
    if n1 == 1:
        return _congruent_one_tower(q, p, k_max)
    w = p_adic_w(q, n1, p)
    entries = []
    stable_m: int | None = None
    for k in range(1, k_max + 1):
        pk = p**k
        i, d = max(0, k - w), n1
        ordv = p**i * d
        if k > w and stable_m is not None and pk > DENSE_LIMIT:
            entries.append(FixedBaseLevel(k, pk, i, d, ordv, stable_m, "stability"))
            continue
        mv, _, source = _route(q % pk, pk, False)
        entries.append(FixedBaseLevel(k, pk, i, d, ordv, mv, source))
        if k >= w and stable_m is None:
            stable_m = mv
    return FixedBaseTower(q, p, w, tuple(entries))


def _congruent_one_tower(q: int, p: int, k_max: int) -> FixedBaseTower:
    # q = 1 (mod p): m(q, p^k) = gcd(p^k, q-1) throughout
    w = None if q == 1 else p_adic_w(q, 1, p)
    entries = []
    for k in range(1, k_max + 1):
        pk = p**k
        mv = pk if q == 1 else gcd(pk, q - 1)
        i, d = ord_factorization(q, p, k)
        entries.append(FixedBaseLevel(k, pk, i, d, p**i * d, mv, "closed_form"))
    return FixedBaseTower(q, p, w, tuple(entries))


def tower_sequence(p: int, n: int, k_max: int, stop_at_limit: bool = False) -> TowerReport:
    """m at p, p^2, ..., p^k_max for a fresh element of exact order n per level.

    The one walk over the levels of such a tower. K_hit is the first level
    where m reaches r, the smallest prime divisor of n; with stop_at_limit
    the walk ends there. No modulus cap applies: a level past the orbit
    engine's range raises its ModulusTooLarge.
    """
    require_odd_prime(p)
    if n < 2 or (p - 1) % n != 0:
        raise DomainError(f"need 1 < n | p-1, got n={n}, p={p}")
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    r = smallest_prime_divisor(n)
    levels: list[TowerLevel] = []
    k_hit = None
    for k in range(1, k_max + 1):
        gen = element_of_order(p, k, n)
        mv = m_prime_power(gen, p, k)[0]
        levels.append(TowerLevel(k, p**k, gen, n, mv, p_adic_w(gen, n, p)))
        if mv == r and k_hit is None:
            k_hit = k
            if stop_at_limit:
                break
    decreases = tuple(
        levels[j].k for j in range(1, len(levels)) if levels[j].m < levels[j - 1].m
    )
    return TowerReport(p, n, tuple(levels), levels[-1].m, k_hit, decreases)


def _walk_to_limit(p: int, n: int, k_cap: int) -> TowerReport:
    # the walk up to K; existence is guaranteed but no bound is known, so a
    # tower still short of r at k_cap is a loud error, never a truncation
    report = tower_sequence(p, n, k_cap, stop_at_limit=True)
    if report.K_hit is None:
        raise NotFoundWithinCap(
            f"m did not reach {smallest_prime_divisor(n)} for (p={p}, n={n}) "
            f"within k_cap={k_cap}"
        )
    return report


def prop10_search(p: int, n: int, k_cap: int) -> tuple[int, int]:
    """Least K <= k_cap with m = smallest prime divisor of n in the order-n
    tower, together with the generator used there; NotFoundWithinCap if the
    tower is still short of it at k_cap."""
    report = _walk_to_limit(p, n, k_cap)
    return report.K_hit, report.levels[-1].generator


def tower_rows(p: int, n: int, k_cap: int) -> list[tuple[int, int, int]]:
    """(p, k, m) for the order-n tower at p, up to the level K where m reaches
    its limit; a tower still short of it at k_cap raises NotFoundWithinCap,
    as prop10_search does."""
    return [(p, lv.k, lv.m) for lv in _walk_to_limit(p, n, k_cap).levels]


def _order_n_table(n: int, p_max: int, k_cap: int) -> list[tuple[int, int, int]]:
    # primes with n | p-1 are 1 (mod n)
    return [row for p in range(n + 1, p_max + 1, n) if is_prime(p)
            for row in tower_rows(p, n, k_cap)]


def prop14_table(p_max: int, k_cap: int = 6) -> list[tuple[int, int, int]]:
    """(p, k, m) for order-5 subgroups at every prime p = 1 (mod 5) up to
    p_max, k up to stabilization."""
    return _order_n_table(5, p_max, k_cap)


def prop15_table(p_max: int, k_cap: int = 6) -> list[tuple[int, int, int]]:
    """(p, k, m) for order-7 subgroups, analogously."""
    return _order_n_table(7, p_max, k_cap)
