"""Cyclotomic machinery for the finite exception sets of small-m prime powers.

Exact integer polynomials (enough for X^n - 1 factor towers), the threshold
n/(n - phi(n)), Bezout denominators, and the candidate sift: every modulus e
dividing Phi_n(q) with m(q,e) below the threshold must divide one of finitely
many Bezout denominators, which are enumerated here and then verified member
by member against the engine.

A Bezout denominator, the least positive integer in g(zeta) Z[zeta], is
invariant under x -> a x + b of the exponents mod n, a prime to n: each
sigma_a is a ring automorphism of Z[zeta] fixing Z, and zeta^b a unit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from operator import itemgetter

from .engine import m_prime_power
from .errors import DegenerateInput, DomainError, ModulusTooLarge, MsumError
from .modular import divisors, element_of_order, euler_phi, trial_factor

__all__ = [
    "IntPolynomial",
    "ExceptionSet",
    "cyclotomic",
    "threshold",
    "bezout_denominator",
    "prop11_candidates",
    "candidate_scan",
    "corollary13_exceptions",
]

@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients lowest degree first, no trailing zeros."""

    coeffs: tuple[int, ...]

    @staticmethod
    def make(seq) -> "IntPolynomial":
        c = list(seq)
        while c and c[-1] == 0:
            c.pop()
        return IntPolynomial(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def divmod_monic(self, den: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Division by a monic polynomial; stays in integers."""
        if den.is_zero or den.coeffs[-1] != 1:
            raise DomainError("divisor must be monic")
        rem = list(self.coeffs)
        dd = den.degree
        quo = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - dd - 1, -1, -1):
            c = rem[i + dd]
            if c:
                quo[i] = c
                for j, b in enumerate(den.coeffs):
                    rem[i + j] -= c * b
        return IntPolynomial.make(quo), IntPolynomial.make(rem[:dd])


@cache
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by exact division of X^n - 1."""
    if n < 1:
        raise DomainError("n must be >= 1")
    num = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))  # X^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = num.divmod_monic(cyclotomic(d))
            if not rem.is_zero:
                raise MsumError("cyclotomic division was not exact (bug)")
    return num


def threshold(n: int) -> Fraction:
    """n / (n - phi(n)) in lowest terms; m below this forces the exception set."""
    if n < 2:
        raise DomainError("threshold requires n >= 2")
    return Fraction(n, n - euler_phi(n))


def bezout_denominator(g: IntPolynomial, n: int) -> int:
    """Smallest positive integer d in the ideal (g, Phi_n) of Z[X]: the lcm of
    the denominators of the coefficients of g^-1 mod Phi_n.

    Every e dividing both g(q) and Phi_n(q) divides d. One fraction-free
    (Bareiss) Gauss-Jordan solve of M a = e_0, with M the phi(n) x phi(n)
    matrix of multiplication by g mod Phi_n, leaves det M on the diagonal and
    adj(M) e_0 in the augmented column, so d = |det M| / gcd(det M, adj(M) e_0).
    M is singular exactly when Phi_n divides g, since Phi_n is irreducible.
    """
    phi_n = cyclotomic(n)
    if g.is_zero:
        raise DegenerateInput("g must be nonzero")
    size = phi_n.degree
    cols = []  # column j is X^j * g mod Phi_n
    col = g.divmod_monic(phi_n)[1]
    for _ in range(size):
        cols.append(col.coeffs + (0,) * (size - len(col.coeffs)))
        col = IntPolynomial.make((0,) + col.coeffs).divmod_monic(phi_n)[1]
    rows = [[c[i] for c in cols] + [int(i == 0)] for i in range(size)]
    prev = 1
    for k in range(size):
        piv = next((i for i in range(k, size) if rows[i][k]), None)
        if piv is None:
            raise DegenerateInput(f"Phi_{n} divides g; denominator undefined")
        rows[k], rows[piv] = rows[piv], rows[k]
        pivot_row = rows[k]
        p = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                a = row[k]
                rows[i] = [(p * x - a * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return abs(prev) // gcd(prev, *(row[size] for row in rows))


# ---------------------------------------------------------------------------
# candidate enumeration and the exception sets

@dataclass(frozen=True)
class CandidateScan:
    n: int
    threshold: Fraction
    tuples_examined: int
    d_values: tuple[int, ...]
    factored: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]  # (d, factorization)
    unresolved: tuple[tuple[int, int], ...]  # (d, unresolved cofactor)


@dataclass(frozen=True)
class ExceptionSet:
    """Verified prime powers p^k admitting an order-n element with m below
    the threshold, plus the candidate pool they were sifted from."""

    n: int
    threshold: Fraction
    entries: tuple[tuple[int, int, int], ...]  # (p, k, m)
    candidate_pool: frozenset[int]
    unresolved: tuple[tuple[int, int], ...]
    complete: bool


def _raw_tuples(n: int):
    """Nondecreasing exponent tuples with i_1 = 0, i_m < phi(n), m < threshold."""
    phi = euler_phi(n)
    thr = threshold(n)
    m_max = (thr.numerator - 1) // thr.denominator
    for m_len in range(1, m_max + 1):
        for rest in itertools.combinations_with_replacement(range(phi), m_len - 1):
            yield (0,) + rest


def _smaller_image(c: tuple[int, ...], starts, reads, phi: int) -> bool:
    """Whether the tuple with count vector c (c[x] copies of exponent x) has a
    smaller image y -> (y - x)/u in the domain, x in starts, u a step of
    reads. The image's count vector is c read from x along u: a smaller tuple
    when it is larger (sorted tuples of one length order as their count
    vectors in reverse), in the domain when it is zero from phi on."""
    for by_start in reads:
        for x in starts:
            image = by_start[x](c)
            if image > c and not any(image[phi:]):
                return True
    return False


def candidate_scan(n: int) -> CandidateScan:
    """Enumerate all short exponent tuples, compute their Bezout denominators,
    and factor them. Unresolved cofactors are reported, never dropped.
    tuples_examined counts the tuples least among their rotations (each
    exponent moved to 0, sorted, the largest below phi(n)). d is solved only
    for the tuples least among their affine images x -> a x + b, a prime to n:
    one per affine class of the domain, as d is invariant under these maps."""
    if n < 2:
        raise DomainError("n must be >= 2")
    phi = euler_phi(n)
    units = [u for u in range(1, n) if gcd(u, n) == 1]  # 1 first: reads[:1] rotate
    reads = [[itemgetter(*((x + k * u) % n for k in range(n))) for x in range(n)]
             for u in units]  # reads[j][x] reads x, x + u_j, x + 2 u_j, ... mod n
    d_values: set[int] = set()
    count = 0
    for t in _raw_tuples(n):
        c = [0] * n
        for i in t:
            c[i] += 1
        c = tuple(c)
        starts = [x for x in set(t) if c[x] >= c[0]]  # no other x reads a larger c
        if _smaller_image(c, starts, reads[:1], phi):
            continue
        count += 1
        if not _smaller_image(c, starts, reads[1:], phi):
            d_values.add(bezout_denominator(IntPolynomial.make(c), n))
    factored = []
    unresolved = []
    for d in sorted(d_values):
        factors, cofactor = trial_factor(d)
        factored.append((d, tuple(factors)))
        if cofactor != 1:
            unresolved.append((d, cofactor))
    return CandidateScan(
        n=n,
        threshold=threshold(n),
        tuples_examined=count,
        d_values=tuple(sorted(d_values)),
        factored=tuple(factored),
        unresolved=tuple(unresolved),
    )


def _candidate_pool(scan: CandidateScan) -> set[int]:
    """Union of the divisor sets of the factored Bezout denominators."""
    pool: set[int] = set()
    for _, factors in scan.factored:
        pool.update(divisors(factors))
    return pool


def prop11_candidates(n: int) -> set[int]:
    """Union of the divisor sets of all Bezout denominators: a finite superset
    of every e with e | Phi_n(q) and m(q,e) < threshold(n)."""
    return _candidate_pool(candidate_scan(n))


def corollary13_exceptions(n: int) -> ExceptionSet:
    """Sift the candidates to prime powers p^k with n | p-1, then keep those
    whose order-n element really has m below the threshold; every m comes
    with an explicit witness, which the engine checks (length m, sum 0 mod
    p^k) before it answers. A p^k left unsifted, as it is beyond every route
    of the engine, is listed as unresolved (p^k, p^k), and the set is then
    not complete."""
    scan = candidate_scan(n)
    thr = scan.threshold
    pk_candidates: set[tuple[int, int]] = set()
    for _, factors in scan.factored:
        for p, a in factors:
            if p == 2 or p % n != 1:
                continue
            pk_candidates.update((p, j) for j in range(1, a + 1))
    entries = []
    unresolved = list(scan.unresolved)
    for p, k in sorted(pk_candidates):
        q = element_of_order(p, k, n)
        try:
            mv, _ = m_prime_power(q, p, k, want_witness=True)
        except ModulusTooLarge:
            unresolved.append((p**k, p**k))
            continue
        if Fraction(mv) < thr:
            entries.append((p, k, mv))
    return ExceptionSet(
        n=n,
        threshold=thr,
        entries=tuple(entries),
        candidate_pool=frozenset(_candidate_pool(scan)),
        unresolved=tuple(unresolved),
        complete=not unresolved,
    )
