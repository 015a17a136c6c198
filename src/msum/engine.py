"""m(q,e) engine.

The minimal number of powers of q summing to 0 mod e is found by
breadth-first sumset growth over Z/eZ: level t holds the set A_t of residues
reachable as a sum of at most t elements of H = <q>, and m is the first level
containing 0. Witnesses are reconstructed by walking the level sets backwards.

Both orbit routes below rest on one closure fact. The set S_t of sums of
exactly t elements of H = <q>, and A_t as well, is closed under
multiplication by H (multiplying a sum of t elements of H by h in H gives
another), so

    S_t + H = H * (S_t + 1):

a level costs one shift by 1 and one orbit closure, not a shift per element.

Every m the module computes, for m(), m_prime_power() and each generator
class of a table walk that the walk's bounds do not settle (below), goes
through one private dispatcher, _route. It alone picks among six routes,
names the one that answered (quoted below), and refuses a modulus that no
route takes with ModulusTooLarge:
  - "pair", for H = {1, q}, q = 1 or q of order 2, at every modulus, tested
    first (q^2 = 1 mod e): m is the least a + b with a + b q = 0 (mod e),
    found on the intermediate fractions of q/e in O(log e) steps (_pair);
    the witness is a ones and b copies of q for the least such b, the one the
    dense backtrack below reads, and one of more than DENSE_LIMIT terms is
    refused (m alone is still answered);
  - "m_two", the m = 2 test, for every modulus below SPARSE_LIMIT once the
    order n of q is known, before any search: -1 lies in H = <q> iff n is
    even and q^(n/2) = -1 (mod e), and then m = 2 with witness (0, n/2), the
    one every search below gives. Beyond DENSE_LIMIT it also answers moduli
    that are not odd prime powers;
  - "coset", for a prime modulus e <= DENSE_LIMIT past the gate of _route
    when its cost estimate is below the dense step's (_coset_cheaper), with or
    without a witness. It runs after the two above, so n is odd, n >= 3 and
    -1 is not in H. x -> x^n (mod e) has kernel H in the cyclic (Z/eZ)*, so
    it keys each coset xH (Dickson's cyclotomic classes of order
    d = (e - 1)/n), and each level S_s of exact s-sums, a union of cosets, is
    held as its sorted keys with one element per key: S_(s+1) = H (S_s + 1)
    costs |S_s| n keys, in slices, and at most d + 1 keys. m is 1 + the least
    s with -1 in S_s, searched up to the orbit engine's closed stop r; the
    witness is read back by _dense_witness over the keyed levels, so m and
    witness equal the dense step's, and a witness search builds no level
    past S_min(m - 1, r - 2) (_m_coset);
  - the dense exact-level search (_exact_search), for moduli up to
    DENSE_LIMIT and order n >= 3, with or without a witness: on the sums of
    terms h - 1, which lie in the multiples of g = gcd(e, q - 1), it tests
    only t = g, 2g, ..., each by meeting the sums of ceil(t/2) terms with the
    negation of those of floor(t/2) terms (one bit reversal per level), so it
    builds at most ceil(m/2) levels, jumps to m once a level adds nothing,
    and checks that its last set lies in the multiples of g; a witness search
    goes on to level m - 2 or the last new level. A level's step is one
    shift per element of H for 3 <= n < LABEL_MIN_ORDER ("bitmask",
    _bfs_dense), else ("label", _bfs_label) a roll by 1, a scatter of the
    orbit labels hit and a gather back, every residue labelled with the
    minimum of its H-orbit (an upward walk scatters the orbit of each
    unlabelled residue it meets). The rule is on n, not e: a level costs the
    bitmask step about n*e/64 word operations and the label step a few passes
    over e, so large-e subgroups of small order (prime-power towers) stay on
    the bitmask. An m-alone search of an odd prime power p^k, k >= 2, p not
    dividing n, past the gate of _route goes to the orbit engine below
    instead;
  - "orbit", a sparse orbit engine for odd prime powers p^k beyond bitmask range
    (up to 2^40), and for the m-alone searches of p^k, k >= 2, past the gate
    within that range: one canonical orbit key per orbit is stored, in two plain
    lists of sorted arrays, reps[s] for the exact s-sums and negs[s] for
    their negations. Meet-in-the-middle over half-length sums searches t < r
    (r the smallest prime divisor of the order); m = r is returned only with
    a verified order-r witness. negs[s] keys the negation of reps[s] in
    slices into one array, sorted in place with no dedup (negation maps
    distinct orbits to distinct orbits), and the halves meet slice by slice,
    each slice of negs sorted with the window of reps that spans it
    (_meet): beyond the held levels, a negation and a meet take one
    level-sized array and one slice. Each orbit of s-sums is the image of a
    rotation class of s-multisets of exponents, and for s < r each class has
    one canonical member, of exponent sum 0 (mod n); while a level is sparse
    and n < 64 the multiset step makes each canonical multiset of it once,
    from its one canonical parent, and checks their count. Other levels are
    the keys of a sliced grid, the level below x the powers. On a prime
    modulus the key is the orbit minimum. On p^k with k >= 2 (n | p - 1) a
    search chooses its key once, at entry, and never re-keys a held level:
    if the grid of its deepest level's base, C(n + D - 2, D - 1) cells,
    outgrows p, a unit's key is its one orbit element whose residue mod p
    has discrete log below (p - 1)/n, read from a table over the p residues,
    and a multiple of p keeps its minimum; else it is the orbit minimum,
    taken by one product of the powers and the elements while that grid is
    small (_orbit_min), else by n - 1 mulmod passes. The
    witness backtrack starts from the least orbit minimum of a colliding
    orbit, so the witness does not depend on the key, and tests every power
    of a level at once, against the keys of the level below.
The two level steps give equal level sets, so equal m and equal witnesses,
which _dense_witness, the one reader of the dense witness rule, reads back as
exponents of q; the coset route's levels are the same sets, keyed, and it
hands the same reader a key test. 0 in S_m = H (S_(m-1) + 1) puts -1 in
S_(m-1), so the reader's first step always takes the power 1 and it reads
no level above S_(m-2): no witness search builds S_(m-1). _route checks
every witness it returns (length m, sum 0 mod e) or raises MsumError.

The one cache holds per-modulus m tables. The entry of modulus e is a
complete, immutable _Table: the m and the order of each generator class of
(Z/eZ)* in ascending order of the class's least element (m depends only on
the generated subgroup), and the class of each unit. _walk, its only
builder, takes the m of the maximal subgroups <q^p> of a class, p a prime
divisor of its order n, before the class's own. Their least m bounds m
from above, and once the m = 2 test has shown that -1 is not in H,
g ceil(3/g), g = gcd(e, q - 1), bounds it from below: where the two meet,
the class takes that m with no search. Every other class goes once through
_route (the class of 1 takes the pair route). The walk labels the
generators of a class of order n, the powers q^j with j prime to n, by one
byte mask per order, sieved by the primes of n.
m_table_for_modulus(e) builds the entry on a miss and expands it into rows
(the ascending units q with their m and n) by two array lookups. The cache
only grows between clear_cache() calls, so cache_rows(start) lists the
entries built since cache_size() read start, as (e, values, cls, order)
rows: the one row shape of pool workers and of a ResultStore. seed_cache()
adopts such rows as they are, so nothing walks or searches a modulus they
supplied; a row that differs from a held entry in any column raises
MsumError, as m depends on (e, class) alone. Single m queries go through
_route as well and are not cached.
"""
from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import compress, groupby, islice
from math import comb, gcd, isqrt
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ModulusTooLarge, MsumError
from .modular import (
    MResult,
    PowerSumInstance,
    factorize,
    find_primitive_root,
    mul_order,
    order_mod_prime_power,
    prime_power,
    require_coprime,
    smallest_prime_divisor,
    unit_subgroup,
)

__all__ = [
    "DENSE_LIMIT",
    "LABEL_MIN_ORDER",
    "SPARSE_LIMIT",
    "ModulusRows",
    "m",
    "m_value",
    "m_table_for_modulus",
    "m_prime_power",
    "ceil_bound",
    "is_m_two",
    "two_power_m",
    "verify_witness",
    "naive_m_oracle",
    "clear_cache",
    "cache_size",
    "cache_rows",
    "seed_cache",
]

DENSE_LIMIT = 1 << 22  # largest modulus handled by the dense (bitmask and label) BFS and coset route
LABEL_MIN_ORDER = 1024  # smallest subgroup order n a dense modulus sends to the label BFS
SPARSE_LIMIT = 1 << 40  # largest modulus handled by the orbit engine

# F, the one gate of _route before both keyed routes (coset and orbit): a
# dense subgroup whose bitmask level costs n ceil(e/64) <= F words stays on the
# dense search. F was fitted on orbit-engine timings only, never on the coset
# route's: fitting time against cells (orbit) and words (bitmask) over 600
# even-order classes of odd prime powers 300 < e <= 2049, the difference of the
# two intercepts over the bitmask's time per word read 4,200 and 4,700 (2-core
# box, Python 3.11)
_KEYED_FIXED_WORDS = 4000
# P of _coset_cheaper: the coset route's price of one power-map key, in bitmask
# words. Fitting time against keys (coset) and words (bitmask) over 80 classes of
# odd order at primes 2^11 < e < 2^22 read 39 for orders below LABEL_MIN_ORDER,
# and 14 over 60 label-range classes, where a level's keys come in longer slices
# (2-core box, Python 3.11, numpy 2.4). The same label-range fit priced the label
# step at 54 words per e-bit word to label and 107 per level. P = 32 is refitted
# to neither: of the 79 classes the walk of every e <= 2049 hands the rule, 32
# sends 70 to the coset route, 39 would send 65 and 14 all.
_COSET_KEY_WORDS = 32
_LABEL_FIXED_WORDS, _LABEL_LEVEL_WORDS = 54, 107
_MUL_SPLIT = 20  # limb split for overflow-free int64 mulmod (needs modulus < 2^40)
_SLICE_CELLS = 1 << 17  # grid cells per slice of an orbit level build (bounds peak memory)
_MEET_SLICE = 1 << 15  # keys per slice of a negated level and of a meet (bounds peak memory)
# the most cells _orbit_min takes in one product of the powers and the input
# (inputs shorter than n go in slices of this many cells): at 2^15 cells the
# product took 0.2-0.97 of the time of the n - 1 passes (n = 5 to 127, p near
# 2^25 and 2^37), as numpy's per-call cost dominates short passes; at 2^19 it
# took 2.5-4x, as it is memory-bound, and at n = 5 and 2^16 cells up to 6x
# (2-core box, Python 3.11, numpy 2.4)
_ORBIT_MIN_CELLS = 1 << 15
_BIT_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte's bits reversed


# ---------------------------------------------------------------------------
# per-modulus table cache

class ModulusRows(NamedTuple):
    """The m table of one modulus e as aligned int64 arrays: the ascending q
    in [1, e) coprime to e, m(q, e) and the order n of q."""

    q: np.ndarray
    m: np.ndarray
    n: np.ndarray


class _Table(NamedTuple):
    """The cache entry of one modulus: the m of each generator class, in
    ascending order of its least element, the class index of each unit
    (ascending, at the least unsigned width that numbers the classes) and
    the order of each class (uint32)."""

    values: np.ndarray
    cls: np.ndarray
    order: np.ndarray


_tables: dict[int, _Table] = {}  # e -> the cache entry of modulus e


def clear_cache() -> None:
    _tables.clear()


def cache_size() -> int:
    return len(_tables)


def seed_cache(rows) -> None:
    """Adopt (e, values, cls, order) rows, from cache_rows() or a ResultStore,
    as they are. A row equal to the held entry keeps it. m is a function of
    (e, class), so a row that differs in any column can only be a bad store
    row or an engine fault: it raises MsumError and the held entry stays. A
    column that is the very array the entry holds is not compared: a store
    reopened in one session hands back the arrays the first seeding adopted
    (see store), so seeding it again costs a lookup per row, and every other
    row is compared in full."""
    for e, *row in rows:
        held = _tables.get(e)
        if held is None:
            _tables[e] = _Table(*row)
        # equal widths compare as bytes, several times faster than np.array_equal
        elif not all(a is b or (a.tobytes() == b.tobytes() if a.dtype == b.dtype
                                else np.array_equal(a, b))
                     for a, b in zip(held, row)):
            raise MsumError(f"seeded m table of modulus {e} differs from the one "
                            f"this session holds")


def cache_rows(start: int) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The (e, values, cls, order) rows of the entries cached after the first
    `start`.

    Between clear_cache() calls the cache only grows and keeps insertion
    order, so a cache_size() taken earlier marks every table built since.
    """
    return [(e, *entry) for e, entry in islice(_tables.items(), start, None)]


# ---------------------------------------------------------------------------
# dense exact-level search (bitmask and orbit-label level steps)

def _exact_search(e: int, g: int, keep: bool, steps: Sequence[int] = (), lab=None):
    """(m, levels or None) for H = <q> mod e and a divisor g of e and of
    q - 1 (g = 1 is always valid). Y_L, the sums of at most L terms h - 1,
    h in H, is a Python int (bit y for residue y): cumulative (1 - 1 = 0),
    with Y_a + Y_b = Y_(a+b), inside gZ/eZ. The exact t-sums are S_t = t + Y_t
    (pad with ones), so 0 is one iff -t lies in Y_t, iff Y_ceil(t/2) meets
    -t - Y_floor(t/2), which needs g | t: only t = g, 2g, ... are tested, on
    levels up to ceil(m/2). Once a level adds nothing, Y_L is closed under
    adding each h - 1, the subgroup dZ/eZ of its least positive element d,
    and -t lies in Y_L + Y_L = Y_L iff d | t: the search jumps to the first
    multiple of d from t on. The last set must lie in the multiples of g, or
    MsumError is raised. dbl holds -1 - Y_b, b = floor(t/2), twice over e
    bits (one bit reversal per new b), so dbl >> (t - 1) holds -t - Y_b in
    its low e bits.

    A level's step shifts the new residues by each of the `steps` h - 1, or,
    with the orbit labels `lab`, takes S_(L+1) = H (S_L + 1) (_orbit_level).
    With `keep` the search goes on to level m - 2, the deepest that
    _dense_witness reads, or the last new level L, and returns the levels it
    built, Y_1 to at least Y_min(m - 2, L), as little-endian bytes."""
    full = (1 << e) - 1
    size = (e + 7) // 8
    seen = frontier = below = 1  # Y_0 = {0}; below is the level under seen
    level, rev_level, dbl = 0, -1, 0
    levels = [] if keep else None
    t, value = g, 0
    while not value or keep:
        top = value - 2 if value else (t + 1) // 2
        while level < top and frontier:
            below = seen
            if lab is None:
                acc = 0
                for a in steps:
                    acc |= frontier << a
                acc = (acc | (acc >> e)) & full
            else:
                acc = _orbit_level(seen, level + 1, lab, e)
            frontier = acc & ~seen
            seen |= frontier
            level += 1
            if keep and frontier:
                levels.append(seen.to_bytes(size, "little"))
        if value:
            break
        if not frontier:  # Y_level = Y_(level - 1) = dZ/eZ
            low = seen ^ 1
            d = (low & -low).bit_length() - 1 if low else e
            value = -(-t // d) * d
            continue
        half = t // 2
        if half != rev_level:  # x lands at e - 1 - x and 2e - 1 - x
            rev = (seen if half == level else below).to_bytes(size, "little")
            rev = int.from_bytes(rev.translate(_BIT_REVERSE), "big") >> 8 * size - e
            dbl, rev_level = rev | rev << e, half
        if seen & (dbl >> (t - 1)):
            value = t
        else:
            t += g
    multiples, span = 1, g
    while span < e:
        multiples |= multiples << span
        span *= 2
    if seen & ~multiples:
        raise MsumError(f"exact-level search mod {e}: a sum of terms h - 1 is not a multiple "
                        f"of {g}, so the hint g does not divide every h - 1")
    return value, levels


def _bfs_dense(e: int, elements: Sequence[int], keep_masks: bool, g: int = 1):
    """_exact_search by the bitmask step, H given by its elements in any order."""
    return _exact_search(e, g, keep_masks, steps=[a - 1 for a in elements])


def _bfs_label(e: int, pw: np.ndarray, keep_levels: bool, g: int = 1):
    """_exact_search by the orbit-label step, H = <q> given by its powers pw."""
    return _exact_search(e, g, keep_levels, lab=_orbit_labels(e, pw))


def _orbit_level(y: int, r: int, lab: np.ndarray, e: int) -> int:
    """Y_r from Y_(r-1), Python ints: S_(r-1) + 1 is Y_(r-1) rolled by r; the
    labels it hits are marked and gathered back, H (S_(r-1) + 1) = S_r, which
    rolls back by r."""
    r %= e
    full, size = (1 << e) - 1, (e + 7) // 8
    s = ((y << r | y >> (e - r)) & full).to_bytes(size, "little")
    s = np.unpackbits(np.frombuffer(s, np.uint8), count=e, bitorder="little").view(bool)
    hit = np.zeros(e, dtype=bool)
    hit[lab[s]] = True
    s = int.from_bytes(np.packbits(hit[lab], bitorder="little").tobytes(), "little")
    return (s >> r | s << (e - r)) & full


def _dense_witness(e: int, pw: np.ndarray, m: int, member) -> tuple[int, ...]:
    """The sorted exponents of a vanishing m-sum of the powers pw of q, read
    back by one rule: from x = 0, the step with k terms left takes the least
    pw[j] with x - pw[j] in S_k, the sums of exactly k powers, where
    member(k, y) says whether y mod e, y an int or an int64 array in (-e, e),
    lies in S_k. 1 is tested alone first, as an int; the other powers in
    slices of _SLICE_CELLS. What is left after m - 1 steps is a power. From a
    minimal sum no remainder is a sum of fewer terms, so the dense search's
    sets of at most k terms give the same hits (_level_member).

    The first step needs no test: 0 in S_m = H (S_(m-1) + 1) puts -1 in
    S_(m-1), so it takes 1 and leaves x = -1 with m - 2 terms. member is
    never asked about S_(m-1), and no search builds it for the witness."""
    one = int(pw.argmin())  # the exponent of 1
    exps = [one]
    x = e - 1
    for k in range(m - 2, 0, -1):
        if member(k, x - 1):
            j = one
        else:
            best = (e, -1)  # (pw[j], j) of the least hit so far; every power is below e
            for lo in range(0, pw.size, _SLICE_CELLS):
                part = pw[lo:lo + _SLICE_CELLS]
                hits = np.flatnonzero(member(k, x - part))
                if hits.size:
                    i = int(hits[part[hits].argmin()])
                    best = min(best, (int(part[i]), lo + i))
            j = best[1]
            if j < 0:
                raise MsumError("witness backtrack failed (engine bug)")
        exps.append(j)
        x = (x - int(pw[j])) % e
    exps += np.flatnonzero(pw == x)[:1].tolist()
    return tuple(sorted(exps))


def _level_member(e: int, levels: list[bytes]):
    """member(k, x) of _dense_witness over the levels Y_1, Y_2, ... that
    _exact_search keeps: x is in S_k iff x - k is in Y_min(k, L)."""
    views = [np.frombuffer(level, np.uint8) for level in levels]

    def member(k: int, x):
        y = _mod(x - k, e)
        return views[min(k, len(levels)) - 1][y >> 3] >> (y & 7) & 1
    return member


def _orbit_labels(e: int, pw: np.ndarray) -> np.ndarray:
    """lab[x] = the minimum of the orbit {x * pw[j]} of every residue x, pw
    the powers of q (mod e). The residues are walked upward in blocks of
    4 sqrt(e), one vector test each: a residue still unlabelled when reached
    is the least element of its orbit, so one scatter labels it. The orbit
    of x with gcd(x, e) = g has k = ord(q mod e/g) elements, x * pw[:k], as
    x q^j = x (mod e) iff q^j = 1 (mod e/g); k is found once per g."""
    lab = np.full(e, -1, dtype=np.int32)
    block = 4 * isqrt(e)
    sizes = {1: pw.size}  # g -> the orbit size of every x with gcd(x, e) = g
    for s in range(0, e, block):
        for x in (np.flatnonzero(lab[s:s + block] < 0) + s).tolist():
            if lab[x] < 0:
                g = gcd(x, e)
                k = sizes.get(g)
                if k is None:
                    k = sizes[g] = mul_order(int(pw[1]), e // g)
                lab[_mulmod_vec(pw[:k], x, e)] = x
    return lab


# ---------------------------------------------------------------------------
# sparse orbit engine (prime-power moduli beyond bitmask range)

def _mod(x, m: int):
    """x mod m for an int64 array or an int x and an int m > 0. An array
    takes x - (x // m) m: numpy divides an array by a scalar with libdivide's
    multiply and shift, but takes its remainder by hardware division, so this
    wins on short arrays (10^4 int64 elements: 25 us against 42 us for
    np.remainder). On long ones its fresh arrays dominate, and np.remainder
    with out= wins (2^17 elements: 0.54 ms against 1.19 ms; 2-core box)."""
    if not isinstance(x, np.ndarray):
        return x % m
    out = x // m
    out *= m
    return np.subtract(x, out, out=out)


def _mulmod_vec(x: np.ndarray, c, p_mod: int) -> np.ndarray:
    """x * c (mod p_mod) for p_mod < 2^40, int64 x and an int or int64
    array c, nonnegative, one of them below p_mod and the other below
    2 p_mod. Beyond 2^31, x is split at _MUL_SPLIT bits, x * c =
    (x >> s) (c 2^s) + (x mod 2^s) c with c 2^s reduced, so that both
    products and their sum stay below 2^62."""
    if p_mod < 1 << 31:  # x * c < 2 p_mod^2 < 2^63 fits int64 as is
        return _mod(x * c, p_mod)
    out = x >> _MUL_SPLIT
    out *= _mod(c << _MUL_SPLIT, p_mod)
    low = x & (1 << _MUL_SPLIT) - 1
    low *= c
    out += low
    return _mod(out, p_mod)


def _power_table(q: int, p_mod: int, n: int) -> np.ndarray:
    """q^i mod p_mod for i < n as int64, by doubling; p_mod < 2^40."""
    pw = np.ones(n, dtype=np.int64)
    k = 1
    while k < n:
        take = min(k, n - k)
        pw[k:k + take] = _mulmod_vec(pw[:take], pow(q, k, p_mod), p_mod)
        k += take
    return pw


def _sorted_unique(x: np.ndarray, kind: str | None = None) -> np.ndarray:
    """The sorted distinct elements of int64 x, as numpy's unique gives them,
    by one sort of the raveled array (of the given numpy kind) and a mask
    keeping each element that differs from its predecessor. A contiguous x
    is sorted in place, saving a copy, so callers pass arrays they no longer
    need. numpy's unique sends int64 input through a hash table, 15-60x
    slower than a sort on the arrays this engine dedups."""
    out = x.ravel()
    out.sort(kind=kind)
    keep = np.empty(out.size, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


class _Orbits(NamedTuple):
    """The orbits of H = <q>, of order n, acting by multiplication on
    Z/p_mod, p_mod = p^k: the powers pw[j] = q^j (mod p_mod) for j < n and the
    key table of _key_table, fixed at a search's entry (None: orbit minima)."""

    p_mod: int
    p: int
    q: int
    pw: np.ndarray
    mult: np.ndarray | None = None


def _key_table(orb: _Orbits) -> np.ndarray:
    """mult[r] = q^i (mod p_mod) for each residue r mod p, where i < n sends
    every unit x = r (mod p) to its canonical orbit element x q^i: the one
    whose residue mod p has a discrete log, to the least primitive root g,
    below d = (p - 1)/n. Needs k >= 2 and n | p - 1, so that q mod p has
    order n as well. Each unit mod p is g^b q^a for exactly one b < d and
    a < n, and its log is b (mod d), as d divides the log of q; so one outer
    product of the two power tables and one scatter fill the table,
    mult[g^b q^a] = q^(n - a), in O(log p) vector steps. mult[0] is a
    placeholder: non-units keep their orbit minimum."""
    p, n = orb.p, orb.pw.size
    g_pw = _power_table(find_primitive_root(p), p, (p - 1) // n)
    cells = _mod(g_pw[:, None] * _power_table(orb.q % p, p, n), p)  # below p^2 < 2^40
    mult = np.ones(p, dtype=np.int64)
    mult[cells] = orb.pw[-np.arange(n) % n]
    return mult


def _orbit_key(x: np.ndarray, orb: _Orbits) -> np.ndarray:
    """The canonical orbit key of each element of int64 x, 0 <= x < 2 p_mod:
    the one element of its orbit that every element of that orbit maps to.

    Without a key table it is the orbit minimum. With one, a unit's key is
    x mult[x mod p], one gather and one mulmod whatever n is; a multiple of
    p (0 included, about one element in p) keeps its orbit minimum. Unit
    and non-unit orbits are disjoint, so the two kinds of key never give one
    orbit two keys."""
    if orb.mult is None:
        return _orbit_min(x, orb.pw, orb.q, orb.p_mod)
    r = _mod(x, orb.p)
    key = _mulmod_vec(x, orb.mult[r], orb.p_mod)
    fix = np.flatnonzero(r == 0)
    if fix.size:
        key[fix] = _orbit_min(x[fix], orb.pw, orb.q, orb.p_mod)
    return key


def _grid_keys(base: np.ndarray, orb: _Orbits) -> np.ndarray:
    """The canonical orbit keys of the grid base x pw, as a (base.size, n)
    array: cell (b, j) keys b + q^j (mod p_mod)."""
    cell = base[:, None] + orb.pw  # below 2 p_mod, which every key reduces
    return _orbit_key(cell.ravel(), orb).reshape(cell.shape)


def _multiset_level(orb: _Orbits, sums: np.ndarray, masks: np.ndarray, s: int, count: int,
                    keep: bool):
    """(keys of level s + 1, with its (sums, masks) when `keep`, else None)
    by the multiset step: from the canonical s-multisets of exponents, given
    by their sums and occupancy masks (bit j set iff j is in the multiset),
    it makes each canonical (s + 1)-multiset exactly once.

    A canonical (s + 1)-multiset M comes from exactly one pair (P, c): P a
    canonical s-multiset, c < n, and every exponent of P in the cyclic
    interval [i, c], i = c (s + 1)^-1 (mod n). Then M = (P + {c}) - i, of sum
    q^-i (sum(P) + q^c) and mask P's mask with bit c, rotated down by i.
    Conversely c - i is the largest exponent of M, and P is the rest rotated
    to exponent sum 0. The test is one AND of P's mask with the bits outside
    [i, c]. Parents go in slices of _SLICE_CELLS // n, into arrays of the
    known count; any other count raises MsumError."""
    n, p_mod = orb.pw.size, orb.p_mod
    inv, full = pow(s + 1, -1, n), (1 << n) - 1
    i = np.arange(n) * inv % n  # the rotation of each c
    outside = []  # the bits c + 1, ..., i - 1 (mod n) of each c
    for c, ic in enumerate(i.tolist()):
        run, k = (1 << (ic - c - 1) % n) - 1, (c + 1) % n
        outside.append((run << k | run >> (n - k)) & full)
    outside = np.array(outside, dtype=np.int64)
    bit, low, back = np.left_shift(1, np.arange(n)), np.left_shift(1, i) - 1, orb.pw[-i % n]
    keys = np.empty(count, dtype=np.int64)
    if keep:
        out_sums, out_masks = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)
    rows, at = max(1, _SLICE_CELLS // n), 0
    for lo in range(0, sums.size, rows):
        b, c = np.nonzero((masks[lo:lo + rows, None] & outside) == 0)
        start, at = at, at + b.size
        if at > count:
            break
        b += lo
        x = _mulmod_vec(sums[b] + orb.pw[c], back[c], p_mod)  # below 2 p_mod times below p_mod
        keys[start:at] = _orbit_key(x, orb)
        if keep:
            out_sums[start:at] = x
            mask, ic = masks[b] | bit[c], i[c]
            out_masks[start:at] = mask >> ic | (mask & low[c]) << (n - ic)
    if at != count:
        raise MsumError(f"multiset step mod {p_mod}, order {n}: level {s + 1} is not "
                        f"the {count} canonical multisets (engine bug)")
    return _sorted_unique(keys), ((out_sums, out_masks) if keep else None)


def _orbit_min(x: np.ndarray, pw: np.ndarray, q: int, p_mod: int) -> np.ndarray:
    """The orbit minimum of each element of int64 x, 0 <= x < 2 p_mod,
    under the n powers pw of q (pw[j] = q^j mod p_mod). It is the canonical
    orbit key where _orbit_key has no key table. A small input, x.size n <=
    _ORBIT_MIN_CELLS, or one shorter than n, takes the whole grid
    pw x x in one product (the limb split beyond 2^31) and its least row, in
    slices of _ORBIT_MIN_CELLS // n elements; a larger one takes n - 1 steps
    of x, each a mulmod by q and a minimum."""
    n = pw.size
    if x.size * n <= _ORBIT_MIN_CELLS or x.size < n:
        rows, col = max(1, _ORBIT_MIN_CELLS // n), pw[:, None]
        best = np.empty(x.size, dtype=np.int64)
        for lo in range(0, x.size, rows):
            part = x[lo:lo + rows]
            cells = _mulmod_vec(np.broadcast_to(part, (n, part.size)), col, p_mod)
            cells.min(axis=0, out=best[lo:lo + rows])
        return best
    best = _mod(x, p_mod)
    cur = x
    for _ in range(n - 1):
        cur = _mulmod_vec(cur, q, p_mod)
        np.minimum(best, cur, out=best)
    return best


def _held(keys: np.ndarray, x):
    """Whether each key of x (an int64 array or an int) is in sorted keys."""
    at = np.minimum(np.searchsorted(keys, x), keys.size - 1)
    return keys[at] == x


def _meet(keys: np.ndarray, negs: np.ndarray) -> np.ndarray:
    """The keys common to two sorted arrays of distinct int64 keys, as
    np.intersect1d(keys, negs, assume_unique=True) gives them, with no copy
    of negs and no sort of a whole array. Each slice of _MEET_SLICE keys of
    negs is sorted together with the window of keys that spans its range,
    and its common keys are the equal neighbours; the hits, already in
    order, are concatenated. On level 9 of 571^4 (246,674 keys a side) this
    took 3.8 ms, np.intersect1d 4.5 ms and a lookup of each slice by _held
    6.7 ms (best of 15; 2-core box, Python 3.11, numpy 2.4). A stable sort
    (timsort, one linear merge) took 2.9 ms, but paging in its code, which
    the small orbit searches of perfbench queries run nowhere else, added
    128 KB to that workload's peak RSS."""
    hits = [negs[:0]]
    for lo in range(0, negs.size, _MEET_SLICE):
        part = negs[lo:lo + _MEET_SLICE]
        a, b = np.searchsorted(keys, (part[0], part[-1]))
        run = np.concatenate((keys[a:b + 1], part))
        run.sort()
        hits.append(run[1:][run[1:] == run[:-1]])
    return np.concatenate(hits)


def _neg_keys(level: np.ndarray, orb: _Orbits) -> np.ndarray:
    """The sorted keys of the negation of a level held as its sorted keys:
    p_mod - x is keyed in slices of _MEET_SLICE into one array, sorted in
    place. -(xH) = (-x)H, so negation maps distinct orbits to distinct
    orbits and the keys are distinct with no dedup."""
    out = np.empty(level.size, dtype=np.int64)
    for lo in range(0, level.size, _MEET_SLICE):
        out[lo:lo + _MEET_SLICE] = _orbit_key(orb.p_mod - level[lo:lo + _MEET_SLICE], orb)
    out.sort()
    return out


def _m_orbit(p_mod: int, p: int, q: int, n: int, want_witness: bool):
    """Minimal t with a vanishing t-sum over the orbit {q^i mod p_mod}.

    Requires p_mod = p^k < 2^40 (p an odd prime) and ord(q) = n >= 2 prime to
    p, as _route passes them. (Z/p^k)* is cyclic of order p^(k-1) (p - 1), so
    n divides p - 1, and a power h != 1 of q has h - 1 a unit, as h = 1 (mod p)
    would make the order of h a power of p. Reachable sets of exact s-sums are
    orbit-closed (the closure fact of the module docstring), so each is stored
    as the sorted canonical orbit keys of _orbit_key: reps[s] for the s-sums,
    negs[s] for their negations. 0 in f_t is a collision between reps[s1] and
    negs[s2], s1 = ceil(t/2) and s2 = floor(t/2), so each step of t adds at
    most one entry to each list.

    negs[s] is _neg_keys(reps[s]), keyed in slices and sorted with no dedup,
    and _meet finds a collision slice by slice. So beyond the held levels a
    negation and a meet take one level-sized array and one slice: at 571^4
    and 761^4 (n = 19, level 9 of 246,675 multisets) the traced peak is the
    multiset build of level 9, 7.45 MiB, where the negation keyed in one
    piece and np.intersect1d took 14.97 MiB.

    Two steps build level s + 1 with the same keys. Rotating an exponent
    multiset by i multiplies its sum by q^i, so each orbit of (s + 1)-sums is
    the image of one rotation class of (s + 1)-multisets. For s + 1 < r, r
    the smallest prime divisor of n, the rotation is free and s + 1 is
    invertible mod n, so each class has one canonical member, of exponent
    sum 0 (mod n), and there are C(n + s, s + 1)/n of them; every level the
    search builds has s + 1 <= r/2. The multiset step (_multiset_level) makes
    each once, from the canonical s-multisets, and builds the level while n
    fits an int64 occupancy mask, it built every level below (level 1, {0}
    of sum 1, counts as its own) and the count is at most the grid's
    |reps[s]| n cells, which also bounds its memory by the grid's. At the
    last level the search can reach it keeps keys alone. Otherwise the grid
    step keys every cell of reps[s] x powers (_grid_keys), each orbit once
    per sub-orbit, in slices of about _SLICE_CELLS cells, each merged into
    the level as it is made.

    The key is chosen once, at entry, and no level is keyed again: for
    k >= 2 the key table is built iff the grid of the deepest level's base,
    C(n + D - 2, D - 1) cells with D = r // 2, has more than p cells (a
    few passes over the p residues against n - 1 mulmods saved per key);
    else keys are orbit minima, as on a prime modulus, whose table would
    need an entry per residue of p_mod.

    Closed stop: r divides n, so h = q^(n/r) has h - 1 a unit, the order-r
    subgroup {h^j} sums to (h^r - 1)/(h - 1) = 0, and m <= r. Only t < r is
    searched; if none vanishes, r is returned with that subgroup as witness
    once its sum is checked.

    The witness backtrack starts from the least orbit minimum among the
    orbits of the collision, so the witness does not depend on the keys. At
    each level it takes the least exponent j whose remainder z - q^j has its
    key in the level below; reps[0] = {0} makes the last step find the
    exponent of the power left.
    """
    orb = _Orbits(p_mod, p, q, _power_table(q, p_mod, n))
    r = smallest_prime_divisor(n)
    depth = r // 2  # the last s1 the loop reaches
    if p < p_mod and comb(n + depth - 2, depth - 1) > p:  # k >= 2
        orb = orb._replace(mult=_key_table(orb))
    rows = max(1, _SLICE_CELLS // n)
    # level 0 is {0}, level 1 the orbit of 1, keyed 1 by both keys; -0 = 0
    reps = [np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)]
    negs = [reps[0]]
    # the sums and masks of the top level's canonical multisets while the
    # multiset step builds the levels: level 1 is {0}, of sum 1 and mask 1
    sets = (reps[1], reps[1]) if n < np.iinfo(np.int64).bits else None
    for t in range(1, r):
        s1, s2 = (t + 1) // 2, t // 2
        if len(reps) <= s1:
            base = reps[-1]
            if sets and (count := comb(n + s1 - 1, s1) // n) <= base.size * n:
                # keys alone at the last level the search can reach
                level, sets = _multiset_level(orb, *sets, s1 - 1, count, s1 < depth)
            else:
                sets, level = None, np.empty(0, dtype=np.int64)
                for i in range(0, base.size, rows):
                    part = _sorted_unique(_grid_keys(base[i:i + rows], orb))
                    # a stable sort is numpy's timsort: one linear merge of two sorted runs
                    level = _sorted_unique(np.concatenate((level, part)), kind="stable")
            reps.append(level)
        if len(negs) <= s2:
            negs.append(_neg_keys(reps[s2], orb))
        common = _meet(reps[s1], negs[s2])
        if common.size:
            break
    else:
        witness = tuple(range(0, n, n // r))
        if sum(pow(q, a, p_mod) for a in witness) % p_mod:
            raise MsumError(f"order-{r} subgroup sum mod {p_mod} does not vanish")
        return r, (witness if want_witness else None)
    if not want_witness:
        return t, None
    c = int(_orbit_min(common, orb.pw, q, p_mod).min())
    witness = []
    for z, s in ((c, s1), ((p_mod - c) % p_mod, s2)):
        for lvl in range(s, 0, -1):
            rest = (z - orb.pw) % p_mod
            hits = np.flatnonzero(_held(reps[lvl - 1], _orbit_key(rest, orb)))
            if not hits.size:
                raise MsumError("orbit witness backtrack failed (engine bug)")
            witness.append(int(hits[0]))
            z = int(rest[hits[0]])
    return t, tuple(sorted(witness))


# ---------------------------------------------------------------------------
# coset route (prime moduli within the dense range, keyed by the power map)

def _power_key(x, n: int, e: int):
    """x^n (mod e) in [0, e) for x in (-e, e), e a prime <= DENSE_LIMIT and
    n >= 2: an int by pow, an int64 array by square and multiply from the top
    bit of n (products below e^2 < 2^44 in size, each reduced into [0, e)).
    For n | e - 1 the kernel of x -> x^n on the cyclic (Z/eZ)* is its one
    subgroup of order n, H, so the key is constant on each coset xH and
    differs between cosets; 0 keys 0."""
    if not isinstance(x, np.ndarray):
        return pow(x, n, e)
    out, quo = x.copy(), np.empty_like(x)
    for bit in bin(n)[3:]:
        for factor in (out, x) if bit == "1" else (out,):
            out *= factor  # in place, as _mod's three passes, with no new array
            np.floor_divide(out, e, out=quo)
            quo *= e
            out -= quo
    return out


def _coset_level(reps: np.ndarray, pw: np.ndarray, e: int, d: int):
    """(keys, reps) of S_(s+1) = H (S_s + 1): its sorted keys x^n (mod e)
    and one element of the coset of each, from one element of each coset of
    S_s. S_s + 1 is the cells x q^j + 1, x in reps, taken in slices of
    _SLICE_CELLS; any cell of a key stands for its coset. A level below m
    holds at most the d = (e - 1)/n nonzero cosets, so the slices stop once
    it has them; a key 0 would be a vanishing sum of fewer than m terms and
    raises MsumError."""
    n = pw.size
    rows, cols = max(1, _SLICE_CELLS // n), min(n, _SLICE_CELLS)
    keys, out = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    for i in range(0, reps.size, rows):
        for j in range(0, n, cols):
            cell = reps[i:i + rows, None] * pw[j:j + cols]
            cell += 1
            cell = _mod(cell.ravel(), e)
            key = _power_key(cell, n, e)
            new = _sorted_unique(key.copy())
            new = new[~_held(keys, new)] if keys.size else new
            if new.size:
                at = np.searchsorted(new, key)
                hit = _held(new, key)
                rep = np.empty(new.size, dtype=np.int64)
                rep[at[hit]] = cell[hit]
                keys, out = np.concatenate((keys, new)), np.concatenate((out, rep))
                order = keys.argsort(kind="stable")
                keys, out = keys[order], out[order]
            if keys.size >= d:
                break
        if keys.size >= d:
            break
    if keys[0] == 0:
        raise MsumError(f"coset search mod {e}: 0 is a sum of fewer than m terms (engine bug)")
    return keys, out


def _m_coset(q: int, e: int, n: int, want_witness: bool):
    """(m, witness|None) for H = <q> of odd order n >= 3 mod a prime
    e <= DENSE_LIMIT, -1 not in H (_route sends it after _pair and _m_two).
    Each level S_s of exact s-sums is a union of cosets xH, and 0 is in
    none below m; S_1 = H has key 1. m is 1 + the least s with -1 in S_s,
    key e - 1. For m alone the halves meet, by the orbit engine's _meet: 0 is
    in S_t iff the keys of S_ceil(t/2) meet the negated keys of S_floor(t/2),
    and x^n is odd in x, so -y keys e - key(y) (reversed, as e minus sorted
    keys descends). Both searches stop at the orbit engine's closed
    stop: r, the smallest prime divisor of n, sums the order-r subgroup to
    0, so m <= r, and only t < r is searched. A witness search tests -1 in
    S_1, S_2, ... and keeps the levels it builds, at most S_1, ..., S_(r-2):
    at the closed stop m = r it builds no S_(r-1), which _dense_witness does
    not read, so for r = 3 it builds no level at all. It hands _dense_witness
    the membership test x in S_k iff the key x^n (mod e) is among the keys
    of S_k, so m and witness are the dense step's."""
    d, r = (e - 1) // n, smallest_prime_divisor(n)
    keys, reps = [None, np.ones(1, dtype=np.int64)], [None, np.ones(1, dtype=np.int64)]
    pw = _power_table(q, e, n) if want_witness or r > 3 else None

    def grow():
        level = _coset_level(reps[-1], pw, e, d)
        keys.append(level[0])
        reps.append(level[1])

    if not want_witness:
        for t in range(2, r):
            while len(keys) <= (t + 1) // 2:
                grow()
            if _meet(keys[(t + 1) // 2], (e - keys[t // 2])[::-1]).size:
                return t, None
        h = pow(q, n // r, e)
        if sum(pow(h, j, e) for j in range(r)) % e:
            raise MsumError(f"order-{r} subgroup sum mod {e} does not vanish")
        return r, None
    value = 2
    while value < r and not _held(keys[value - 1], e - 1):
        if value + 1 < r:  # at the closed stop m = r nothing reads S_(r-1)
            grow()
        value += 1
    return value, _dense_witness(e, pw, value, lambda k, x: _held(keys[k], _power_key(x, n, e)))


# ---------------------------------------------------------------------------
# public m computations

def _powers_of(q: int, e: int) -> list[int]:
    if e == 1:
        return [0]
    powers = [1]
    x = q % e
    while x != 1:
        powers.append(x)
        x = x * q % e
    return powers


def _pair(q: int, e: int) -> tuple[int, int]:
    """(m, b) for H = {1, q}, q^2 = 1 (mod e): m is the least a + b >= 1 with
    a + b q = 0 (mod e), a ones and b copies of q, and b the least count of q
    among such sums of m terms. The pairs (b, a) with a + b q = 0 (mod e) form
    a lattice with basis A = (0, e), B = (1, -q). A least-b minimiser has an a
    below that of every smaller b, a strict record low of -b q (mod e), and
    these lie on the runs A + jB, 0 <= j <= a_A // -a_B, of the intermediate
    fractions of q/e (Khinchin, on best approximations). Each step adds to B
    the most multiples of A that keep its a negative, then moves A to the far
    end of its run, where a_A < -a_B. a + b is linear along a run, so its least
    value lies at an end, and the near end is the far end of the run before.
    b only grows, so the walk stops once b reaches the least sum found, or at
    a = 0 (b = e): O(log e) steps, and q = 1 gives (e, 0)."""
    best, arg = e, 0
    b, a, c, d = 0, e, 1, q  # A = (b, a), B = (c, -d)
    while b < best and a:
        k = (d - 1) // a
        c, d = c + k * b, d - k * a
        k = a // d
        b, a = b + k * c, a - k * d
        if b + a < best:
            best, arg = b + a, b
    return best, arg


def _m_two(q: int, e: int, n: int) -> tuple[int, int] | None:
    """The witness (0, n/2) of m = 2 when -1 lies in H = <q>, of order n,
    mod e > 2, else None. A cyclic H holds at most one element of order 2,
    q^(n/2) for even n, and -1 has order 2, so -1 is in H iff n is even and
    q^(n/2) = -1 (mod e); then 1 + q^(n/2) vanishes, and as no unit does,
    m = 2 exactly. The dense backtrack and the orbit engine's closed stop
    read this same witness, and _pair, which answers q = -1 first, gives it."""
    if n % 2 == 0 and pow(q, n // 2, e) == e - 1:
        return 0, n // 2
    return None


def _odd_prime_power(e: int) -> tuple[int, int] | None:
    """(p, k) with e = p^k for an odd prime p, else None: the one shape check
    of _route, which sends such a modulus past its gate to the coset route
    (k = 1) or the orbit engine, by modular.prime_power's integer roots, with
    no trial division."""
    shape = prime_power(e)
    return shape if shape and shape[0] != 2 else None


def _coset_cheaper(e: int, n: int, want_witness: bool) -> bool:
    """Whether the cost rule of _route, its one caller, sends the search of
    an odd order n >= 3 mod a prime e <= DENSE_LIMIT, past its gate, to the
    coset route: its keys priced below the dense step.

    Level s of the coset route holds at most
    c_s = min(ceil(C(n + s - 1, s)/n), d) cosets, d = (e - 1)/n, and costs
    c_(s-1) n keys. m is estimated as one past the first level whose c_s
    reaches d, at most r, the smallest prime divisor of n. At that m a
    witness costs the levels S_2, ..., S_(m-1) and n keys per backtrack step
    after the first (2n keys in all for r = 3, m = 3), and m alone the levels
    up to S_ceil((m-1)/2) (none for r = 3). Against them, P = _COSET_KEY_WORDS
    words a key, stand the dense step's m - 1 or ceil(m/2) levels: n ceil(e/64)
    words each on the bitmask, and 107 words per e-bit word each plus 54 to
    label on the label step.

    The witness prices predate the backtrack's untested first step: the
    coset price still charges S_(m-1) at the closed stop (S_2 at r = 3,
    which _m_coset no longer builds), and the dense price m - 1 levels where
    the search now builds max(m - 2, ceil(m/2)). They are kept: a refit
    waits on a benchmark workload of label-range orders, where the two
    routes' witnessed searches can be weighed."""
    words = -(-e // 64)
    d, r = (e - 1) // n, smallest_prime_divisor(n)
    sizes, multisets = [1], n  # c_1, c_2, ... and C(n + s - 1, s)
    while len(sizes) < r - 1 and sizes[-1] < d:
        s = len(sizes) + 1
        multisets = multisets * (n + s - 1) // s
        sizes.append(min(-(-multisets // n), d))
    depth = len(sizes) + 1  # the estimated m
    # the keys of S_2, S_3, ...; a level of d cosets stops after the slice that completes it
    build = [min(a * n, _SLICE_CELLS) if b == d else a * n for a, b in zip(sizes, sizes[1:])]
    if want_witness:
        keys, levels = sum(build[:depth - 2]) + n * (depth - 2), depth - 1
    else:
        keys, levels = sum(build[:(min(depth, r - 1) + 1) // 2 - 1]), (depth + 1) // 2
    if n < LABEL_MIN_ORDER:
        dense = levels * n * words
    else:
        dense = (_LABEL_FIXED_WORDS + _LABEL_LEVEL_WORDS * levels) * words
    return keys * _COSET_KEY_WORDS < dense


def _route(q: int, e: int, want_witness: bool, n: int = 0, elements: Sequence[int] = ()):
    """(m, witness|None, route) for q reduced mod e > 1: the one dispatch
    over the routes of the module docstring, route the name of the one that
    answered. A table walk passes the order n of q and its powers as
    `elements`, in any order, so neither is computed again. Witness
    exponents refer to q; a witness that fails its check raises MsumError.

    The first test, q^2 = 1 (mod e), sends H = {1, q} to _pair at any
    modulus, before any range check, order or factoring; a witness of m
    terms is refused for m > DENSE_LIMIT, m alone is not. Once n is known,
    the m = 2 test (_m_two) answers every other subgroup that holds -1,
    before any search. Beyond DENSE_LIMIT it is the one route of a modulus
    that is not an odd prime power.

    Past that test a modulus e <= DENSE_LIMIT whose bitmask level costs
    n ceil(e/64) <= F = _KEYED_FIXED_WORDS words keeps the dense search. Past
    this one gate, and beyond DENSE_LIMIT, the shape of e (_odd_prime_power)
    is taken once and routes the search: a prime e to the coset route when
    the cost rule prices its keys below the dense step (_coset_cheaper), with
    or without a witness; an m-alone search of p^k, k >= 2, with n prime to
    p, to the orbit engine; everything else to the dense search, whose levels
    Y_1, ..., Y_min(m - 1, L) _dense_witness reads back. Beyond DENSE_LIMIT
    the orbit engine is the only route, for e = p^k with n prime to p, and
    any other modulus is refused."""
    if q * q % e == 1:  # H = {1, q}: q = 1 or q of order 2
        value, b = _pair(q, e)
        if want_witness and value > DENSE_LIMIT:
            raise ModulusTooLarge(f"m({q}, {e}) = {value}: a witness of more than "
                                  f"{DENSE_LIMIT} terms; ask for m alone")
        witness = (0,) * (value - b) + (1,) * b if want_witness else None
        route = "pair"
    elif e >= SPARSE_LIMIT:  # before any factoring: factorize is exact below 2^40
        raise ModulusTooLarge(f"modulus {e} beyond orbit engine range (2^40)")
    else:
        shape = _odd_prime_power(e) if e > DENSE_LIMIT else None
        n = n or (order_mod_prime_power(q, *shape) if shape else mul_order(q, e))
        pair = _m_two(q, e, n)
        if not pair and e <= DENSE_LIMIT and n * -(-e // 64) > _KEYED_FIXED_WORDS:
            shape = _odd_prime_power(e)
        p, k = shape or (0, 0)
        if pair:
            value, witness, route = 2, (pair if want_witness else None), "m_two"
        elif k == 1 and e <= DENSE_LIMIT and _coset_cheaper(e, n, want_witness):
            value, witness = _m_coset(q, e, n, want_witness)
            route = "coset"
        elif e > DENSE_LIMIT or k > 1 and n % p and not want_witness:
            if shape is None:
                raise ModulusTooLarge(f"modulus {e} beyond dense BFS range, not an "
                                      f"odd prime power, and -1 is not a power of {q}")
            if n % p == 0:
                raise ModulusTooLarge(
                    f"modulus {p}^{k}: order {n} divisible by {p}; reduce k first "
                    f"(the order drop of the tower module)"
                )
            value, witness = _m_orbit(e, p, q, n, want_witness)
            route = "orbit"
        else:
            route = "label" if n >= LABEL_MIN_ORDER else "bitmask"
            pw = _power_table(q, e, n) if want_witness or route == "label" else None
            if route == "label":
                value, levels = _bfs_label(e, pw, want_witness, gcd(e, q - 1))
            else:
                value, levels = _bfs_dense(e, elements or _powers_of(q, e), want_witness,
                                           gcd(e, q - 1))
            witness = (_dense_witness(e, pw, value, _level_member(e, levels))
                       if want_witness else None)
    if witness is not None and not verify_witness(q, e, MResult(value, witness)):
        raise MsumError(f"the witness of m({q}, {e}) = {value} fails its check (engine bug)")
    return value, witness, route


def m(q: int, e: int, with_witness: bool = True) -> MResult:
    """m(q,e) with a witness, checked by _route, whose exponents refer to q itself."""
    require_coprime(q, e)
    if e == 1:
        return MResult(1, (0,))
    value, witness, _ = _route(q % e, e, with_witness)
    return MResult(value, witness if witness is not None else ())


def m_value(q: int, e: int) -> int:
    """m(q,e) without witness reconstruction."""
    return m(q, e, with_witness=False).value


def m_prime_power(q: int, p: int, k: int, want_witness: bool = False):
    """(m, witness|None) at modulus p^k, odd prime p, by _route's six routes.

    Beyond DENSE_LIMIT the orbit route requires the order of q mod p^k to be
    prime to p; callers in that regime must reduce k first (the order drop of
    the tower module).
    """
    e = p**k
    return _route(q % e, e, want_witness)[:2]


def _units(e: int) -> np.ndarray:
    """The ascending q in [1, e) coprime to e, as int64: a sieve by the
    prime divisors of e."""
    unit = np.ones(e, dtype=bool)
    unit[0] = False
    for p, _ in factorize(e):
        unit[::p] = False
    return np.flatnonzero(unit)


def _walk(e: int) -> _Table:
    """The cache entry of modulus e, its classes in ascending order of their
    least generator. The walk meets each class at that generator and first
    computes the maximal subgroups <q^p>, p a prime divisor of the order n,
    from the powers of q^p, powers[::p]. Their least m is an upper bound U,
    as m(H) <= m(K) for K in H. Once the m = 2 test (_m_two) has shown that
    -1 is not in H, m >= 3 and g = gcd(e, q - 1) divides m, so
    L0 = g ceil(3/g) is a lower bound: a class with U = L0 takes m = U with
    no search, U < L0 raises MsumError, and _route answers every other
    class from its order and powers, those of order 1 and 2 by _pair; a
    search of order n > 2 that gives m > U raises MsumError. The recursion
    holds one chain of power lists, about 2n entries."""
    units = _units(e)
    values, order, least = [], [], []  # the m, order and least generator of each class
    # order n -> (byte j is 1 iff j in [0, n) is prime to n, the primes of n)
    sieves: dict[int, tuple[bytearray, list[int]]] = {}
    label = array("I", [0]) * e  # 1 + the index in `values` of the class of each generator so far

    def visit(powers: list[int], least_generator: int = 0) -> None:
        n = len(powers)
        sieve = sieves.get(n)
        if sieve is None:
            mask, primes = bytearray(b"\1") * n, [p for p, _ in factorize(n)]
            for p in primes:
                mask[::p] = bytes(-(-n // p))
            sieve = sieves[n] = mask, primes
        mask, primes = sieve
        for p in primes:
            if not label[powers[p % n]]:
                visit(powers[::p])
        q, value = powers[1 % n], 0
        if n > 2:
            upper = min(values[label[powers[p % n]] - 1] for p in primes)
            g = gcd(e, q - 1)
            lower = g * -(-3 // g)
            if upper <= lower and not _m_two(q, e, n):
                if upper < lower:
                    raise MsumError(f"m table of modulus {e}: a maximal subgroup of <{q}> has "
                                    f"m = {upper}, below {lower}, a lower bound of m (engine bug)")
                value = upper
        if not value:
            value = _route(q, e, False, n, powers)[0]
            if n > 2 and value > upper:
                raise MsumError(f"m table of modulus {e}: the search of <{q}> gives m = "
                                f"{value}, above {upper}, the m of a subgroup (engine bug)")
        values.append(value)
        order.append(n)
        least.append(least_generator or min(compress(powers, mask)))
        index = len(order)
        for x in compress(powers, mask):
            label[x] = index

    for q in units.tolist():
        if not label[q]:
            visit(_powers_of(q, e), q)
    walked = np.argsort(least)  # the index in `values` of each class, by least generator
    # the class index of each unit: uint8 below 256 classes, uint16 below 2^16
    rank = np.empty(walked.size, dtype=np.min_scalar_type(walked.size))
    rank[walked] = np.arange(walked.size)
    return _Table(np.array(values, dtype=np.uint32)[walked],
                  rank[np.frombuffer(label, dtype=np.uint32)[units] - 1],
                  np.array(order, dtype=np.uint32)[walked])


def m_table_for_modulus(e: int) -> ModulusRows:
    """The rows (q, m, n) of every q in [1, e) coprime to e, ascending in q,
    for e >= 1. The first call of a session for a modulus not seeded builds
    its cache entry (see _walk); every call reads the class of each unit,
    and the m and order of each class, from that entry."""
    if e < 1:
        raise DomainError("modulus must be >= 1")
    if e > DENSE_LIMIT:
        raise ModulusTooLarge(f"modulus {e} beyond dense BFS range")
    entry = _tables.get(e)
    if entry is None:
        entry = _tables[e] = _walk(e)
    values, cls, order = entry
    return ModulusRows(_units(e), values[cls].astype(np.int64), order[cls].astype(np.int64))


# ---------------------------------------------------------------------------
# closed forms and checks

def ceil_bound(inst: PowerSumInstance) -> int:
    """ceil(e / n), the sumset-growth upper bound for m."""
    return -(-inst.e // inst.n)


def is_m_two(inst: PowerSumInstance) -> bool:
    """m = 2 iff e = 2, or n is even with q^(n/2) = -1 (mod e) (_m_two)."""
    return inst.e == 2 or _m_two(inst.q, inst.e, inst.n) is not None


def two_power_m(q: int, k: int) -> int:
    """Closed form for e = 2^k and odd q: gcd(e, q-1) if q = 1 (mod 4),
    2 if q = -1 (mod e), 4 otherwise."""
    if q % 2 == 0:
        raise DomainError("q must be odd for two-power moduli")
    if k < 0:
        raise DomainError("k must be >= 0")
    e = 1 << k
    if k == 0:
        return 1
    if q % 4 == 1:
        return gcd(e, q - 1)
    if q % e == e - 1:
        return 2
    return 4


def verify_witness(q: int, e: int, witness) -> bool:
    """Check that the witness exponents produce a vanishing sum of the claimed length."""
    if isinstance(witness, MResult):
        exps = witness.witness
        if len(exps) != witness.value:
            return False
    else:
        exps = tuple(witness)
    if not exps:
        return False
    # one pow per run of equal exponents: a witness of the pair route has two
    return sum(len(list(run)) * pow(q, a, e) for a, run in groupby(sorted(exps))) % e == 0


def naive_m_oracle(q: int, e: int) -> int:
    """Independent m oracle, for the oracle claim and the tests: plain set DP
    over (count, residue) on the subgroup modular.unit_subgroup lists, no
    bitmasks, no frontier tricks, no code shared with the routes; e <= 500."""
    require_coprime(q, e)
    if e > 500:
        raise DomainError("naive oracle is capped at e <= 500")
    base = unit_subgroup(q, e).elements
    reach = set(base)
    count = 1
    while 0 not in reach:
        reach = {(x + a) % e for x in reach for a in base}
        count += 1
    return count
