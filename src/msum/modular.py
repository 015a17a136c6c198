"""Exact modular arithmetic: orders, unit subgroups, and elementary arithmetic functions.

Everything here is a pure function of its inputs; residues are canonical
representatives in [0, e). This is the one module that factors or tests
primality: `trial_factor` divides by 2 and the odd d up to min(sqrt, 2^20), so
it settles every n < 2^40, and beyond that settles the cofactor left as a
prime or a prime power by `prime_power` (deterministic Miller-Rabin,
`is_prime`, and integer roots), or hands it back unresolved. `prime_power`
alone tells the shape p^k of a number without trial division.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .errors import DomainError, NotCoprime

__all__ = [
    "PowerSumInstance",
    "UnitSubgroup",
    "MResult",
    "factorize",
    "trial_factor",
    "prime_power",
    "mul_order",
    "unit_subgroup",
    "euler_phi",
    "divisors",
    "gcd_table",
    "rad",
    "smallest_prime_divisor",
    "is_prime",
    "require_odd_prime",
    "require_coprime",
    "p_adic_w",
    "find_primitive_root",
    "element_of_order",
    "instance",
]


@dataclass(frozen=True)
class PowerSumInstance:
    """A coprime pair (q, e) with the derived quantities n = ord_e(q), e1 = gcd(e, q-1)."""

    q: int
    e: int
    n: int
    e1: int


@dataclass(frozen=True)
class UnitSubgroup:
    """The cyclic subgroup of units mod e generated by a residue."""

    modulus: int
    elements: tuple[int, ...]  # sorted residues in [0, modulus)
    order: int
    generator: int


@dataclass(frozen=True)
class MResult:
    """A computed m value together with a witness multiset of exponents.

    The witness exponents a_1 <= ... <= a_m (each in [0, n)) satisfy
    sum(q**a_i) == 0 mod e for the base the result was produced for.
    """

    value: int
    witness: tuple[int, ...]


# The first 13 primes: strong-probable-prime tests to all of them are exact
# below psi_13 (Sorenson & Webster, Math. Comp. 86 (2017)); the first 12 are
# fooled by psi_12 = 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_VALID_BELOW = 3_317_044_064_679_887_385_961_981  # psi_13


def trial_factor(n: int) -> tuple[list[tuple[int, int]], int]:
    """(factors, cofactor) of n >= 1: the (prime, exponent) pairs in ascending
    order, and 1 when they multiply to n. Trial division stops at 2^20; the
    cofactor left past it is settled as a prime or a prime power, or else
    returned unresolved (no prime factor below 2^20, not a prime power)."""
    if n < 1:
        raise DomainError(f"cannot factor {n}")
    k = (n & -n).bit_length() - 1
    out = [(2, k)] if k else []
    c = n >> k
    d = 3
    top = min(isqrt(c), 1 << 20)
    while d <= top:
        if c % d == 0:
            k = 0
            while c % d == 0:
                c //= d
                k += 1
            out.append((d, k))
            top = min(isqrt(c), top)
        d += 2
    if c == 1:
        return out, 1
    if d * d > c:
        return out + [(c, 1)], 1
    if c < _MR_VALID_BELOW and (shape := prime_power(c)):  # where is_prime is exact
        return out + [shape], 1
    return out, c


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k, p prime and k >= 1, else None, for n below
    psi_13 (is_prime raises DomainError at or above it): a prime test, then
    the integer j-th root of n for each j < log2(n). No trial division, so
    its cost grows with the bits of n, not with sqrt(n)."""
    if n < 2:
        return None
    if is_prime(n):
        return n, 1
    for j in range(2, n.bit_length()):
        root = round(n ** (1 / j))  # float error far below 1/2 while n < 2^82
        if root**j == n and is_prime(root):
            return root, j
    return None


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, ascending; exact for
    every n < 2^40. Raises DomainError on a cofactor trial_factor leaves."""
    factors, cofactor = trial_factor(n)
    if cofactor != 1:
        raise DomainError(f"cannot factor {n}: cofactor {cofactor} unresolved")
    return factors


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below psi_13 ~ 3.3e24; DomainError
    at or above it."""
    if n >= _MR_VALID_BELOW:
        raise DomainError(f"{n} too large for the deterministic prime test")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def euler_phi(n: int) -> int:
    if n < 1:
        raise DomainError("euler_phi requires n >= 1")
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def divisors(factors) -> list[int]:
    """The divisors, ascending, of the number with these (prime, exponent)
    factors, as factorize lists them."""
    out = [1]
    for p, k in factors:
        out = [d * p**j for d in out for j in range(k + 1)]
    return sorted(out)


def gcd_table(e: int) -> np.ndarray:
    """g[x] = gcd(e, x) for x in [0, e), as int64, for e >= 1: each divisor d
    of e, ascending, is written over the multiples of d, so the last to write
    g[x] is the greatest divisor of e that divides x."""
    g = np.empty(e, dtype=np.int64)
    for d in divisors(factorize(e)):
        g[::d] = d
    return g


def rad(n: int) -> int:
    """Product of the distinct prime divisors; rad(1) = 1."""
    if n < 1:
        raise DomainError("rad requires n >= 1")
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


def smallest_prime_divisor(n: int) -> int:
    if n < 2:
        raise DomainError("smallest_prime_divisor requires n >= 2")
    return factorize(n)[0][0]


def require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")


def require_coprime(q: int, e: int) -> None:
    if q < 1 or e < 1:
        raise DomainError("q and e must be positive")
    if gcd(q, e) != 1:
        raise NotCoprime(f"q and e must be coprime; gcd({q},{e}) = {gcd(q, e)}")


def _order_from_group_exponent(q: int, e: int, lam_factors: list[tuple[int, int]]) -> int:
    """Exact order of q mod e given a factored multiple of the group exponent."""
    n = 1
    for p, k in lam_factors:
        n *= p**k
    for p, k in lam_factors:
        for _ in range(k):
            if pow(q, n // p, e) == 1:
                n //= p
            else:
                break
    return n


def _unit_exponent_factors(p: int, k: int) -> list[tuple[int, int]]:
    """The exponent of (Z/p^k)*, prime p, k >= 1, factored: (p - 1) p^(k - 1)
    for odd p, from a factoring of p - 1 alone; for p = 2, 2^(k - 1) up to
    k = 2 and 2^(k - 2) from k = 3 on."""
    if p == 2:
        return [(2, k - 1 if k < 3 else k - 2)]
    return factorize(p - 1) + [(p, k - 1)]


def mul_order(q: int, e: int) -> int:
    """Multiplicative order of q modulo e (least s >= 1 with q^s == 1 mod e)."""
    if e < 1:
        raise DomainError("modulus must be >= 1")
    if e == 1:
        return 1
    q %= e
    if gcd(q, e) != 1:
        raise NotCoprime(f"gcd({q},{e}) != 1")
    # lcm of the per-prime-power orders
    n = 1
    for p, k in factorize(e):
        pk = p**k
        ord_pk = _order_from_group_exponent(q % pk, pk, _unit_exponent_factors(p, k))
        n = n * ord_pk // gcd(n, ord_pk)
    return n


def order_mod_prime_power(q: int, p: int, k: int) -> int:
    """ord_{p^k}(q) for odd prime p, using the known structure of the unit group."""
    require_odd_prime(p)
    if q % p == 0:
        raise DomainError(f"{p} divides q={q}")
    pk = p**k
    return _order_from_group_exponent(q % pk, pk, _unit_exponent_factors(p, k))


def unit_subgroup(q: int, e: int) -> UnitSubgroup:
    """The full element set of <q mod e>, canonically sorted."""
    if e < 1:
        raise DomainError("modulus must be >= 1")
    if e == 1:
        return UnitSubgroup(1, (0,), 1, 0)
    q %= e
    if gcd(q, e) != 1:
        raise NotCoprime(f"gcd({q},{e}) != 1")
    els = []
    x = 1
    while True:
        els.append(x)
        x = x * q % e
        if x == 1:
            break
    return UnitSubgroup(e, tuple(sorted(els)), len(els), q)


def p_adic_w(q: int, n: int, p: int) -> int:
    """Largest w with q^n == 1 (mod p^w), by modular exponentiation at successive
    p-powers. Never forms q^n - 1 in full."""
    require_odd_prime(p)
    if q % p == 0:
        raise DomainError(f"p={p} divides q={q}")
    if q == 1:
        raise DomainError("w is unbounded for q = 1")
    if pow(q, n, p) != 1:
        raise DomainError(f"p={p} does not divide q^n - 1")
    w = 1
    pw = p * p
    while pow(q, n, pw) == 1:
        w += 1
        pw *= p
    return w


def find_primitive_root(p: int, k: int = 1) -> int:
    """Deterministic generator of (Z/p^k)^x for odd prime p: the smallest
    primitive root mod p, adjusted by +p if it fails to generate mod p^2."""
    require_odd_prime(p)
    if k < 1:
        raise DomainError("k must be >= 1")
    prime_divs = [f for f, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // f, p) != 1 for f in prime_divs):
            break
        g += 1
    if k == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def element_of_order(p: int, k: int, n: int) -> int:
    """A residue of exact multiplicative order n mod p^k (odd prime p, n | phi(p^k))."""
    phi = p ** (k - 1) * (p - 1)
    if n < 1 or phi % n != 0:
        raise DomainError(f"n={n} does not divide phi({p}^{k}) = {phi}")
    if n == 1:
        return 1
    g = find_primitive_root(p, k)
    return pow(g, phi // n, p**k)


def instance(q: int, e: int) -> PowerSumInstance:
    """Validate and package a coprime pair with its derived quantities."""
    require_coprime(q, e)
    return PowerSumInstance(q=q, e=e, n=mul_order(q, e), e1=gcd(e, q - 1))
