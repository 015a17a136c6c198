"""Seeded workload inputs.

Pure Python with no import of the program: the program sees only the claims,
moduli and bases these functions return. The same seed gives the same inputs.
"""
from __future__ import annotations

import math
import random

from published import EXAMPLE16, EXAMPLE17_PAIRS, EXAMPLE17_SEQUENCES

# upper modulus of each sweep claim at the source paper's scale
CLAIM_SCALE = {
    "theorem1": 1000,
    "divisibility": 1000,
    "conjecture4": 2049,
    "corollary8": 1224,
    "prop2": 2000,
}
PROP2_FIXED = {"r": 6, "e_min": 1224}
TOP_SHARE = 0.01  # each upper modulus is drawn from the top 1% of its scale
REPLAY_KEEP = 0.95  # share of the moduli whose rows the replay store holds
STORE_E_MAX = max(CLAIM_SCALE.values())

# (229, 19) is left out: its orbit search at p^3 stops at m = 11, where 571
# and 761 go on to 16 and 17, so its row is cheaper by enough to make the
# towers time depend on the seed.
ORDER19_PRIMES = (571, 761)

DENSE_OCTAVES = range(10, 19)  # dense query moduli e just above 2^j
# (log2(order) / log2(e), order parity, m) of the four dense queries per octave.
# For prime e an even order puts -1 in the subgroup, so m = 2; an odd order
# divisible by 3 holds a vanishing 1 + w + w^2 and no -1, so m = 3. Fixing m
# and keeping n * e in a narrow band makes each query cost about the same on
# every seed, so the latency percentiles compare across seeds.
DENSE_SLOTS = ((0.35, "odd", 3), (0.5, "even", 2), (0.65, "odd", 3), (0.8, "even", 2))
E_SPAN = 0.3  # dense moduli lie in [2^j, 2^(j + E_SPAN))
BAND = 0.05  # half-width of the n * e band, in octaves
ORBIT_ORDERS = (5, 7, 11, 13)
ORBIT_SIZES = ((1, 25), (2, 31), (3, 37))  # (k, log2 p^k) of the prime-power query moduli
ORBIT_WIDTH = 0.2  # width of the p^k band, in octaves


def campaign_claims(seed: int) -> list[tuple[str, dict]]:
    """The sweep and replay claim set: a seeded order and upper moduli."""
    rng = random.Random(f"campaign:{seed}")
    claims = sorted(CLAIM_SCALE)
    rng.shuffle(claims)
    return [(c, _params(c, rng.randint(math.ceil((1 - TOP_SHARE) * CLAIM_SCALE[c]),
                                       CLAIM_SCALE[c])))
            for c in claims]


def full_scale_claims() -> list[tuple[str, dict]]:
    """Every sweep claim at its full scale, for building the replay store."""
    return [(c, _params(c, top)) for c, top in sorted(CLAIM_SCALE.items())]


def _params(claim: str, e_max: int) -> dict:
    return {"e_max": e_max, **(PROP2_FIXED if claim == "prop2" else {})}


def replay_moduli(seed: int) -> set[int]:
    """The seeded cut of moduli whose rows are in the replay store."""
    rng = random.Random(f"replay:{seed}")
    return {e for e in range(1, STORE_E_MAX + 1) if rng.random() < REPLAY_KEEP}


def tower_rows(seed: int) -> list[tuple]:
    """("tower", p, n, expected) rows, then ("corollary13", n) rows.

    Every Example 16 row with n <= 17, one order-19 row at p^4 drawn by the
    seed, and all of Example 17.
    """
    rng = random.Random(f"towers:{seed}")
    order19 = (rng.choice(ORDER19_PRIMES), 19)
    picked = sorted(pn for pn in EXAMPLE16 if pn[1] <= 17) + [order19]
    rows = [("tower", p, n, EXAMPLE16[p, n]) for p, n in picked]
    for table in (EXAMPLE17_PAIRS, EXAMPLE17_SEQUENCES):
        rows += [("tower", p, n, table[p, n]) for p, n in sorted(table)]
    rows += [("corollary13", 5), ("corollary13", 7)]
    return rows


def queries(seed: int) -> list[tuple[int, int, int]]:
    """(q, e, n) point queries with ord_e(q) = n, no two on one modulus.

    Dense: per octave from 2^10 to 2^18, four prime moduli, each with q of
    an order n | e - 1 of a fixed shape (DENSE_SLOTS). Orbit: odd prime
    powers p^k of three fixed sizes above the dense range, with q of prime
    order 5, 7, 11 or 13.
    """
    rng = random.Random(f"queries:{seed}")
    used: set[int] = set()
    out = []
    for j in DENSE_OCTAVES:
        for ratio, parity, _ in DENSE_SLOTS:
            n, e = _dense_modulus(rng, j, ratio, parity, used)
            out.append((_element_of_order(rng, e, e - 1, n), e, n))
    for n in ORBIT_ORDERS:
        for k, bits in ORBIT_SIZES:
            p = _orbit_prime(rng, n, k, bits, used)
            e = p**k
            out.append((_element_of_order(rng, e, p ** (k - 1) * (p - 1), n), e, n))
    return out


def _dense_modulus(rng: random.Random, j: int, ratio: float, parity: str,
                   used: set[int]) -> tuple[int, int]:
    """A prime e in [2^j, 2^(j + E_SPAN)) and an order n | e - 1 with n * e,
    which sets the BFS work, within BAND octaves of 2^(j * (1 + ratio))."""
    e_lo = 2**j
    e_hi = max(int(2 ** (j + E_SPAN)), e_lo + 400)  # room for enough primes in small octaves
    work = 2 ** (j * (1 + ratio))
    for attempt in range(100_000):
        e = rng.randrange(e_lo, e_hi)
        if e in used or not is_prime(e):
            continue
        band = 2 ** (BAND * (1 + attempt // 2000))  # widens where small orders are too sparse
        orders = [n for n in divisors(e - 1)
                  if work / band <= n * e <= work * band and n >= 3
                  and (n % 2 == 0 if parity == "even" else n % 6 == 3)]
        if orders:
            used.add(e)
            return rng.choice(orders), e
    raise ValueError(f"no prime modulus in octave {j} for order ratio {ratio}")


def _orbit_prime(rng: random.Random, n: int, k: int, bits: float, used: set[int]) -> int:
    """A prime p = 1 (mod 2n) with p^k in [2^bits, 2^(bits + ORBIT_WIDTH))."""
    lo, hi = math.ceil(2 ** (bits / k)), int(2 ** ((bits + ORBIT_WIDTH) / k))
    first = lo + (1 - lo) % (2 * n)
    count = (hi - first) // (2 * n) + 1
    for _ in range(100_000):
        p = first + 2 * n * rng.randrange(count)
        if p**k not in used and is_prime(p):
            used.add(p**k)
            return p
    raise ValueError(f"no prime p = 1 (mod {2 * n}) with p^{k} near 2^{bits}")


def _element_of_order(rng: random.Random, e: int, group_order: int, n: int) -> int:
    """A residue of exact order n in the cyclic unit group mod e."""
    while True:
        q = pow(rng.randrange(2, e - 1), group_order // n, e)
        if all(pow(q, n // r, e) != 1 for r in prime_factors(n)):
            return q


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list[int]:
    out = [1]
    for p in prime_factors(n):
        k = 0
        while n % p**(k + 1) == 0:
            k += 1
        out = [d * p**i for d in out for i in range(k + 1)]
    return sorted(out)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
