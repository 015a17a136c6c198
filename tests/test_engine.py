import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations_with_replacement
from math import comb, gcd, isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from msum import engine, modular
from msum.engine import (
    ceil_bound,
    is_m_two,
    m,
    m_prime_power,
    m_table_for_modulus,
    m_value,
    naive_m_oracle,
    two_power_m,
    verify_witness,
)
from msum.errors import DomainError, ModulusTooLarge, MsumError, NotCoprime
from msum.modular import (
    MResult,
    element_of_order,
    factorize,
    instance,
    is_prime,
    mul_order,
    smallest_prime_divisor,
    unit_subgroup,
)

coprime_pairs = st.integers(2, 250).flatmap(
    lambda e: st.tuples(
        st.sampled_from([q for q in range(1, e) if gcd(q, e) == 1]),
        st.just(e),
    )
)


def test_m_4_7():
    result = m(4, 7)
    assert result.value == 3
    assert result.witness == (0, 1, 2)
    assert verify_witness(4, 7, result)
    assert not is_m_two(instance(4, 7))


def test_m_paper_values():
    assert m_value(9, 11) == 3
    assert m_value(9, 121) == 5
    assert m_value(3, 26) == 6
    assert m_value(2, 5) == 2
    assert m_value(2, 7) == 3


def test_m_trivial_cases():
    assert m(7, 1) == MResult(1, (0,))
    r = m(1, 9)
    assert r.value == 9 and r.witness == (0,) * 9
    assert m(3, 2).value == 2
    assert m_value(10, 9) == 9  # 10 = 1 (mod 9)


def test_m_rejects_noncoprime():
    with pytest.raises(NotCoprime):
        m(6, 9)
    with pytest.raises(DomainError):
        m(0, 5)


def test_m_of_subgroup():
    # m depends only on <q>, so the subgroup's generator answers for it
    sub = unit_subgroup(4, 7)
    r = m(sub.generator, sub.modulus)
    assert r.value == 3 and r.witness == (0, 1, 2)
    sub = unit_subgroup(1, 11)
    assert m(sub.generator, sub.modulus).value == 11
    assert m(5, 1).value == 1  # mod 1 the generator is 0, outside m's domain


def test_m_without_witness_builds_none_for_q_congruent_one():
    assert m(10, 9, with_witness=False) == MResult(9, ())
    assert m_prime_power(12, 11, 2) == (11, None)
    # m_value(1, e) once built an e-long witness only to drop it (about 8 GB at
    # e = 10^9 + 7); under a 1 GiB address-space cap that raised MemoryError
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from msum.engine import m_value; assert m_value(1, 10**9 + 7) == 10**9 + 7")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_m_with_witness_for_q_congruent_one_refuses_past_the_dense_range():
    # the witness of q = 1 (mod e) has e terms: at e = 10^9 + 7 building it raised
    # MemoryError under a 1 GiB address-space cap; now it is refused before it is built
    for q, e in ((1, engine.DENSE_LIMIT + 1), (engine.DENSE_LIMIT + 2, engine.DENSE_LIMIT + 1)):
        t = time.perf_counter()
        with pytest.raises(ModulusTooLarge):
            m(q, e)
        assert time.perf_counter() - t < 1
    assert m(1, engine.DENSE_LIMIT + 1, with_witness=False).value == engine.DENSE_LIMIT + 1
    code = ("import resource, time; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from msum.engine import m\n"
            "from msum.errors import ModulusTooLarge\n"
            "t = time.perf_counter()\n"
            "try:\n"
            "    m(1, 10**9 + 7)\n"
            "except ModulusTooLarge:\n"
            "    assert time.perf_counter() - t < 1\n"
            "else:\n"
            "    raise SystemExit('no ModulusTooLarge')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_naive_oracle_spot_values(monkeypatch):
    # the oracle shares no code with the routes: not even their power walk
    def refuse(q, e):
        raise AssertionError("the oracle walked the engine's powers")

    monkeypatch.setattr(engine, "_powers_of", refuse)
    assert naive_m_oracle(4, 7) == 3
    assert naive_m_oracle(2, 5) == 2
    assert naive_m_oracle(3, 8) == 4
    with pytest.raises(DomainError):
        naive_m_oracle(2, 501)


def test_engine_equals_oracle_small_exhaustive():
    for e in range(1, 121):
        rows = m_table_for_modulus(e)
        for q, mv in zip(rows.q.tolist(), rows.m.tolist()):
            assert mv == naive_m_oracle(q, e), (q, e)


def test_ceil_bound():
    assert ceil_bound(instance(4, 7)) == 3
    assert ceil_bound(instance(1, 12)) == 12
    assert ceil_bound(instance(5, 8)) == 4


def test_is_m_two_examples():
    assert is_m_two(instance(3, 2))
    assert is_m_two(instance(2, 5))
    assert not is_m_two(instance(4, 7))


def test_is_m_two_iff_m_equals_two():
    for e in range(2, 101):
        for q in range(1, e):
            if gcd(q, e) == 1:
                assert is_m_two(instance(q, e)) == (m_value(q, e) == 2), (q, e)


def test_two_power_examples():
    assert two_power_m(5, 3) == 4
    assert two_power_m(7, 3) == 2
    assert two_power_m(3, 3) == 4
    assert two_power_m(9, 0) == 1
    assert two_power_m(3, 1) == 2
    with pytest.raises(DomainError):
        two_power_m(4, 3)


def test_two_power_matches_bfs_small():
    for k in range(1, 9):
        e = 1 << k
        rows = m_table_for_modulus(e)
        for q, mv in zip(rows.q.tolist(), rows.m.tolist()):
            assert two_power_m(q, k) == mv, (q, k)


def test_verify_witness_matches_a_per_term_sum():
    # unsorted exponents, repeated and not, against one pow per term
    rng = random.Random(7)
    for _ in range(200):
        e = rng.randrange(2, 500)
        q = rng.randrange(1, e)
        exps = [rng.randrange(0, 6) for _ in range(rng.randrange(1, 12))]
        want = sum(pow(q, a, e) for a in exps) % e == 0
        assert verify_witness(q, e, exps) == want, (q, e, exps)
        assert verify_witness(q, e, MResult(len(exps), tuple(exps))) == want, (q, e, exps)
    assert verify_witness(3, 7, (5, 0, 5, 0, 5, 0, 1, 2, 3, 4)) is False
    assert verify_witness(2, 7, (2, 0, 1, 1, 0, 2))  # twice 1 + 2 + 4 = 14


def test_verify_witness():
    assert verify_witness(4, 7, (0, 1, 2))
    assert verify_witness(9, 1, (0,))
    assert verify_witness(5, 8, (0, 0, 0, 1))
    assert not verify_witness(4, 7, (0, 1))
    assert not verify_witness(4, 7, ())
    assert verify_witness(4, 7, MResult(3, (0, 1, 2)))
    assert not verify_witness(4, 7, MResult(2, (0, 1, 2)))  # length != claimed m


@given(coprime_pairs)
def test_m_basic_invariants(pair):
    q, e = pair
    result = m(q, e)
    mv = result.value
    inst = instance(q, e)
    assert 1 <= mv <= e
    assert (mv == e) == (q % e == 1)
    assert (mv == 1) == (e == 1)
    assert mv % inst.e1 == 0
    assert mv <= ceil_bound(inst)
    assert verify_witness(q, e, result)
    assert all(0 <= a < inst.n for a in result.witness)


@given(coprime_pairs, st.integers(2, 6))
def test_m_monotone_under_powers(pair, i):
    q, e = pair
    assert m_value(q, e) <= m_value(pow(q, i, e) if e > 1 else 1, e)


@given(coprime_pairs)
def test_m_depends_only_on_reduced_base(pair):
    q, e = pair
    assert m_value(q, e) == m_value(q + e, e)


def test_subgroup_key_identifies_subgroups():
    # <2> = <8> mod 11 (8 = 2^3, gcd(3, 10) = 1)
    assert m_value(2, 11) == m_value(8, 11)


# The full-depth references the exact-level search is checked against: the
# cumulative bitmask and orbit-label BFS, which build every level A_1, ..., A_m
# of the sums of at most t powers, and the backtrack that reads a witness from
# those levels, taking at each step the hit of least power.

def _full_bitmask(e, elements):
    """(m, [A_1, ..., A_m]) for H given by its elements, each level a Python
    int (bit x for residue x): one shift of the new residues per element."""
    full = (1 << e) - 1
    seen = 0
    for a in elements:
        seen |= 1 << a
    frontier, masks = seen, [seen]
    while not seen & 1:
        acc = 0
        for a in elements:
            acc |= frontier << a
        acc = (acc | (acc >> e)) & full
        frontier = acc & ~seen
        seen |= frontier
        masks.append(seen)
    return len(masks), masks


def _full_label(e, pw):
    """(m, [A_1, ..., A_m]) for H = <q> with powers pw, each level packed
    (bit x of byte x >> 3): A_(t+1) = A_t | H (F_t + 1), F_t the residues
    new at level t, by a roll, a scatter of the labels hit and a gather."""
    lab = engine._orbit_labels(e, pw)
    seen = lab == 1  # A_1 = H, the orbit of 1
    frontier = seen.copy()
    hit = np.empty(e, dtype=bool)
    levels = [np.packbits(seen, bitorder="little")]
    while not seen[0]:
        hit.fill(False)
        hit[lab[np.roll(frontier, 1)]] = True
        frontier = hit[lab]
        frontier &= ~seen
        seen |= frontier
        levels.append(np.packbits(seen, bitorder="little"))
    return len(levels), levels


def _packed(e, masks):
    """The Python-int levels of _full_bitmask packed as _full_label packs its own."""
    return [np.frombuffer(mask.to_bytes((e + 7) // 8, "little"), np.uint8) for mask in masks]


def _full_witness(e, pw, levels):
    """The sorted exponents of a vanishing m-sum read back from the packed
    levels A_1, ..., A_m: from x = 0, each step takes the least pw[j] with
    x - pw[j] in the level below; what is left in A_1 is a power."""
    exps = []
    x = 0
    for level in reversed(levels[:-1]):
        rest = (x - pw) % e
        hits = np.flatnonzero(level[rest >> 3] >> (rest & 7) & 1)
        j = int(hits[pw[hits].argmin()])
        exps.append(j)
        x = int(rest[j])
    exps += np.flatnonzero(pw == x)[:1].tolist()
    return tuple(sorted(exps))


def _level_sets(q, e):
    """(n, [A_1, ..., A_m]): the subgroup order and the cumulative level sets
    of the full-depth bitmask BFS of <q> mod e, each as the sorted list of its
    residues."""
    sub = unit_subgroup(q, e)
    _, masks = _full_bitmask(e, sub.elements)
    return sub.order, [[i for i in range(e) if (mask >> i) & 1] for mask in masks]


def test_level_growth_property():
    # before 0 appears, each level has at least (level index) * n residues
    for q, e in [(4, 7), (2, 101), (3, 80), (7, 200), (5, 121), (2, 169)]:
        n, levels = _level_sets(q, e)
        for t, level in enumerate(levels[:-1], start=1):
            assert len(level) >= t * n, (q, e, t)
        assert len(levels) == m_value(q, e)


def test_level_sets_accessors():
    _, levels = _level_sets(4, 7)
    assert levels[0] == [1, 2, 4]
    assert len(levels) == 3
    assert len(levels[-1]) > len(levels[0])


def test_level_sets_grow_by_subgroup_sums():
    for q, e in [(4, 7), (2, 45), (3, 100)]:
        elements = unit_subgroup(q, e).elements
        _, levels = _level_sets(q, e)
        prev = set(elements)
        assert set(levels[0]) == prev
        for t in range(2, len(levels) + 1):
            grown = prev | {(x + a) % e for x in prev for a in elements}
            assert set(levels[t - 1]) == grown, (q, e, t)
            prev = grown
        assert 0 in prev and all(0 not in level for level in levels[:-1])


def test_witness_deterministic():
    assert m(4, 7).witness == m(4, 7).witness
    a = m(3, 26).witness
    engine.clear_cache()
    assert m(3, 26).witness == a


def _listed(rows):
    """The rows (q, m, n) of a modulus as three lists, for comparing tables."""
    return [column.tolist() for column in rows]


def test_m_table_matches_m_value():
    for e in (1, 2, 7, 24, 96):
        rows = m_table_for_modulus(e)
        assert all(column.dtype == np.int64 for column in rows)
        qs, ms, ns = _listed(rows)
        assert qs == [q for q in range(1, e) if gcd(q, e) == 1]  # ascending
        assert len(ms) == len(ns) == len(qs)
        for q, mv, n in zip(qs, ms, ns):
            assert mv == m_value(q, e)
            assert n == instance(q, e).n


def test_rows_of_a_modulus_past_255_classes():
    # 1729 = 7 * 13 * 19 has 276 generator classes, past what a uint8 class
    # index can number
    engine.clear_cache()
    qs, ms, ns = _listed(m_table_for_modulus(1729))
    [(_, values, *_)] = engine.cache_rows(0)
    assert len(values) == 276
    assert qs == [q for q in range(1, 1729) if gcd(q, 1729) == 1]
    assert ns == [mul_order(q, 1729) for q in qs]
    assert ms == [m_value(q, 1729) for q in qs]


def test_memoized_tables_equal_cold_builds(monkeypatch):
    engine.clear_cache()
    cold = {e: _listed(m_table_for_modulus(e)) for e in range(1, 301)}
    assert engine.cache_size() == 300
    seeded = engine.cache_rows(0)  # as a store holds them

    def no_bfs(*args, **kwargs):
        raise AssertionError("a cached table searched a subgroup")

    monkeypatch.setattr(engine, "_bfs_dense", no_bfs)
    for e, table in cold.items():  # the rows of the walk that built the values
        assert _listed(m_table_for_modulus(e)) == table, e
    engine.clear_cache()
    engine.seed_cache(seeded)
    for e, table in cold.items():  # the seeded rows, as they are
        assert _listed(m_table_for_modulus(e)) == table, e


def test_cache_round_trip(monkeypatch):
    engine.clear_cache()
    m_table_for_modulus(7)
    start = engine.cache_size()
    assert start == 1
    m_table_for_modulus(26)
    m_value(3, 26)  # single queries are not cached
    m(4, 35)  # nor witness queries
    rows = engine.cache_rows(start)
    assert [e for e, *_ in rows] == [26]
    # one value per generator class: the subgroups of (Z/26Z)*, of orders 1, 2, 3, 4, 6, 12
    _, values, cls, order = rows[0]
    assert len(values) == 6
    assert sorted(order.tolist()) == [1, 2, 3, 4, 6, 12]
    assert cls.size == 12  # one class index per unit of 26
    assert engine.cache_rows(engine.cache_size()) == []
    table = _listed(m_table_for_modulus(26))
    engine.clear_cache()
    assert engine.cache_size() == 0
    engine.seed_cache(rows)
    assert engine.cache_size() == 1

    def no_bfs(*args, **kwargs):
        raise AssertionError("a seeded table searched a subgroup")

    def no_walk(q, e):
        raise AssertionError("a seeded table walked its classes")

    monkeypatch.setattr(engine, "_bfs_dense", no_bfs)
    monkeypatch.setattr(engine, "_powers_of", no_walk)
    assert _listed(m_table_for_modulus(26)) == table


@pytest.mark.parametrize("e", [0, -5])
def test_table_of_a_modulus_below_one_is_a_domain_error(e):
    with pytest.raises(DomainError, match="modulus must be >= 1"):
        m_table_for_modulus(e)


def _label_vs_bitmask(q, e):
    """Run the exact-level search on <q> mod e with both level steps, g =
    gcd(e, q - 1); require equal exact levels, equal m with and without them,
    equal witnesses, and the m and witness of the full-depth bitmask BFS."""
    sub = unit_subgroup(q, e)
    pw = engine._power_table(q, e, sub.order)
    g = gcd(e, q - 1)
    value, levels = engine._bfs_label(e, pw, True, g)
    assert engine._bfs_dense(e, sub.elements, True, g) == (value, levels), (q, e)
    assert engine._bfs_label(e, pw, False, g) == (value, None), (q, e)
    assert engine._bfs_dense(e, sub.elements, False, g) == (value, None), (q, e)
    full, masks = _full_bitmask(e, sub.elements)
    assert value == full, (q, e)
    witness = engine._dense_witness(e, pw, value, engine._level_member(e, levels))
    assert witness == _full_witness(e, pw, _packed(e, masks)), (q, e)
    return value


def test_orbit_labels_are_orbit_minima_small_exhaustive():
    for e in range(3, 301):
        residues = np.arange(e, dtype=np.int64)
        minima = {}  # the labels depend only on the subgroup
        for q in range(2, e):
            if gcd(q, e) == 1:  # q >= 2, so ord(q) >= 2
                pw = engine._power_table(q, e, mul_order(q, e))
                key = tuple(np.sort(pw).tolist())
                if key not in minima:
                    minima[key] = (residues[:, None] * pw % e).min(axis=1).tolist()
                assert engine._orbit_labels(e, pw).tolist() == minima[key], (q, e)


@pytest.mark.parametrize("q, e", [(2, 4194301), (68, 4194301), (2, 3000009), (65, 2100224),
                                  (5, 2100224)])
def test_orbit_labels_are_orbit_minima_large_moduli(q, e):
    # 3000009 = 3 * 1000003 and 2100224 = 2^10 * 7 * 293 have non-unit orbits
    # of several sizes; seeded residues, 0 and a multiple of each prime factor
    n = mul_order(q, e)
    assert n >= engine.LABEL_MIN_ORDER
    pw = engine._power_table(q, e, n)
    lab = engine._orbit_labels(e, pw)
    rng = np.random.default_rng(e)
    x = np.concatenate(([0, 1, e - 1], [p * rng.integers(e // p) for p, _ in factorize(e)],
                        rng.integers(0, e, size=40)))
    for v in x.tolist():
        assert lab[v] == (v * pw % e).min(), (q, e, v)


def test_label_route_matches_bitmask_and_oracle_small_exhaustive():
    oracle = {}  # m depends only on the subgroup
    for e in range(3, 301):
        for q in range(2, e):
            if gcd(q, e) == 1:
                value = _label_vs_bitmask(q, e)
                key = e, unit_subgroup(q, e).elements
                if key not in oracle:
                    oracle[key] = naive_m_oracle(q, e)
                assert value == oracle[key], (q, e)


def test_label_route_matches_bitmask_large_moduli(monkeypatch):
    pairs = [(q, e) for e in (4099, 5000, 8191)
             for q in sorted({x for d in (2, 3, 5, 7) for x in (d, e - d, d * d)})
             if gcd(q, e) == 1]
    assert {mul_order(q, e) >= engine.LABEL_MIN_ORDER for q, e in pairs} == {False, True}
    for q, e in pairs:
        _label_vs_bitmask(q, e)
    # the witness exponents too, with every pair sent down each route in turn
    results = {}
    for threshold in (1, 1 << 30):
        monkeypatch.setattr(engine, "LABEL_MIN_ORDER", threshold)
        results[threshold] = [m(q, e) for q, e in pairs]
    assert results[1] == results[1 << 30]


def _classes(e):
    """(q, powers of q) for the least q of each generator class of (Z/eZ)*."""
    walked = set()
    for q in range(1, e):
        if gcd(q, e) == 1 and q not in walked:
            powers = engine._powers_of(q, e)
            walked.update(powers[j] for j in range(len(powers)) if gcd(j, len(powers)) == 1)
            yield q, powers


def test_half_depth_stop_matches_full_search_and_oracle():
    # the m of a table (no masks kept: the g-step search, which stops by
    # level ceil(m/2)) against the witness search, which builds every level
    for e in range(2, 401):
        for q, powers in _classes(e):
            n = len(powers)
            value = engine._route(q, e, False, n, powers)[0]
            assert value == engine._route(q, e, True)[0], (q, e)
            if e <= 300:
                assert value == naive_m_oracle(q, e), (q, e)


def _m_two_matches_full_depth(e_max):
    """The number of pairs (q, e), 2 < e <= e_max, whose subgroup H holds -1,
    after checking m(q, e) on each against the value and witness that the
    full-depth searches of both dense routes read back: m() answers these
    pairs by the m = 2 test and reaches neither. The levels depend on H
    alone, so each class is searched once, by the bitmask and the label
    BFS, and the witness is read back for each generator q^j, j prime to n."""
    pairs = 0
    for e in range(3, e_max + 1):
        for q, powers in _classes(e):
            n = len(powers)
            if n % 2 or powers[n // 2] != e - 1:
                continue
            value, masks = _full_bitmask(e, powers)
            levels = _packed(e, masks)
            pw = np.array(powers, dtype=np.int64)
            label, label_levels = _full_label(e, pw)
            assert (label, [level.tobytes() for level in label_levels]) == \
                (value, [level.tobytes() for level in levels]), (q, e)
            steps = np.arange(n)
            for j in range(1, n):
                if gcd(j, n) == 1:  # the powers of q^j are pw[i j mod n]
                    witness = _full_witness(e, pw[steps * j % n], levels)
                    assert m(powers[j], e) == MResult(value, witness), (powers[j], e)
                    pairs += 1
    return pairs


def test_m_two_matches_full_depth_search():
    assert _m_two_matches_full_depth(400) == 17190


@pytest.mark.slow
def test_m_two_matches_full_depth_search_to_2049():
    assert _m_two_matches_full_depth(2049) == 369631


# (q, e) with m: orders n below LABEL_MIN_ORDER and m of both parities; the
# rows at prime moduli near 2^20, 2^21 and 2^22 are orders 3-7; the last six
# have g = gcd(e, q - 1) = 4, 16 and 3^5, so the search steps t by g, with
# m = g an odd and m = 2g an even step for g = 3^5
HALF_DEPTH_SPOTS = [
    (90242, 99999, 82), (31979, 99999, 271), (75068, 99999, 271), (56395, 99999, 9),
    (11809, 99999, 369), (64778, 99999, 5), (78265, 99999, 9),
    (975347, 999999, 6), (850378, 999999, 33), (463303, 999999, 63), (916093, 999999, 27),
    (81064, 999999, 18),
    (837343, 1000033, 3), (649529, 1000033, 2), (562951, 1000033, 11),
    (890900, 1048573, 3), (683314, 1048573, 2), (225926, 1048571, 5), (890901, 1048573, 2),
    (655684, 1048573, 7),
    (1718556, 2097133, 3), (1598646, 2097133, 2), (1122464, 2097131, 5),
    (1718557, 2097133, 2), (728866, 2097131, 7),
    (1146976, 4194301, 3), (1530975, 4194301, 2), (2941311, 4194301, 5),
    (1146977, 4194301, 2), (1027940, 4194247, 7),
    (376237, 400012, 20), (308393, 810756, 12), (75793, 500272, 48), (260337, 777104, 48),
    (320032, 600939, 243), (322705, 371061, 486),
]


def test_half_depth_stop_at_large_moduli():
    # the rows at prime moduli (1000033 ... 4194301) take the coset route or
    # the m = 2 test when only m is wanted, so the g-step search is also run
    # on every row directly
    orders, steps, routes = set(), set(), {}
    for q, e, mv in HALF_DEPTH_SPOTS:
        n = mul_order(q, e)
        orders.add(n)
        g = gcd(e, q - 1)
        steps.add(g)
        assert n < engine.LABEL_MIN_ORDER, (q, e)
        powers = engine._powers_of(q, e)
        value, _, route = engine._route(q, e, False, n, powers)
        routes.setdefault(e > 10**6 and is_prime(e), set()).add(route)
        full, witness = engine._route(q, e, True)[:2]
        assert value == full == len(witness) == mv, (q, e)
        assert engine._bfs_dense(e, powers, False, g)[0] == mv, (q, e)
        assert verify_witness(q, e, witness), (q, e)
    assert set(range(3, 8)) <= orders and {1, 4, 16, 3**5} <= steps
    assert routes == {True: {"coset", "m_two"}, False: {"pair", "bitmask"}}


def test_orbit_choice_matches_full_search_to_2049():
    # every class of a table walk with e <= 2049 of even order
    # 3 <= n < LABEL_MIN_ORDER at a prime modulus, so -1 is a power of q,
    # whose one bitmask level costs more words than the orbit engine's fixed
    # cost F plus its one level of n cells, n (ceil(e/64) - 1) > F, against
    # the full-depth bitmask search
    chosen = 0
    for e in range(3, 2050):
        for q, powers in _classes(e):
            n = len(powers)
            if (n % 2 == 0 and 3 <= n < engine.LABEL_MIN_ORDER and is_prime(e)
                    and n * (-(-e // 64) - 1) > engine._KEYED_FIXED_WORDS):
                chosen += 1
                assert engine._m_two(q, e, n), (q, e)
                value = engine._route(q, e, False, n, powers)[0]
                assert value == _full_bitmask(e, powers)[0], (q, e)
                # _route answers these even orders by the m = 2 test; the
                # orbit engine's closed stop at r = 2 is run directly
                assert engine._m_orbit(e, e, q, n, False) == (value, None), (q, e)
    assert chosen == 375


# orders of the fresh-generator towers, each tried at the two moduli of _tower_moduli
TOWER_ORDERS = (3, 5, 7, 11, 13, 17, 19, 25, 35, 63, 95)


def _tower_moduli(n):
    """A prime p = 1 (mod n) just above 2^20 and the least power b^k >= 2^16,
    k >= 2, of the least prime b = 1 (mod n) that has one below 2^22."""
    p = next(p for p in range(2**20 // n * n + 1, 2**22, n) if is_prime(p))
    for b in range(n + 1, 2**11, n):
        k = 2
        while b**k < 2**16:
            k += 1
        if is_prime(b) and b**k <= 2**22:
            return (p, 1), (b, k)


def test_orbit_choice_matches_coset_search_on_towers():
    chosen = 0
    for n in TOWER_ORDERS:
        for p, k in _tower_moduli(n):
            e = p**k
            assert 2**16 <= e <= 2**22, (p, k)
            q = element_of_order(p, k, n)
            powers = engine._powers_of(q, e)
            assert len(powers) == n
            value, _, route = engine._route(q, e, False)
            chosen += route == "orbit"
            assert route == ("orbit" if k > 1 else "coset"), (q, p, k)
            assert value == m_prime_power(q, p, k)[0], (q, p, k)
            assert value == engine._bfs_dense(e, powers, False, gcd(e, q - 1))[0], (q, p, k)
    # every modulus p^k with k >= 2 and no prime one
    assert chosen == len(TOWER_ORDERS)


# (p, n): m-alone searches of order n mod p^2 past the gate of _route, with
# p not dividing n, so the orbit engine takes them
ORBIT_GATE_PINS = [(1979, 23), (1979, 43), (239, 17), (307, 17), (409, 17), (571, 19),
                   (761, 19)]


@pytest.mark.parametrize("p, n", ORBIT_GATE_PINS)
def test_gated_prime_squares_take_the_orbit_engine(p, n):
    e, q = p * p, element_of_order(p, 2, n)
    assert n * -(-e // 64) > engine._KEYED_FIXED_WORDS
    value, witness, route = engine._route(q, e, False)
    assert (witness, route) == (None, "orbit"), (p, n)
    assert value == engine._bfs_dense(e, engine._powers_of(q, e), False, gcd(e, q - 1))[0]


def test_a_prime_the_coset_rule_declines_takes_the_bitmask():
    # a prime modulus past the gate that the coset rule declines keeps the
    # dense search: only p^k with k >= 2 goes to the orbit engine
    e, n = 50513, 11
    q = element_of_order(e, 1, n)
    assert n * -(-e // 64) > engine._KEYED_FIXED_WORDS
    assert not engine._coset_cheaper(e, n, False)
    assert engine._route(q, e, False) == (11, None, "bitmask")
    assert engine._m_orbit(e, e, q, n, False) == (11, None)


@pytest.mark.slow
def test_gated_prime_powers_take_the_orbit_engine_to_2_22():
    # every subgroup of odd order n >= 3 mod p^k <= 2^22, k >= 2, p not
    # dividing n (so n | p - 1), past the gate n ceil(e/64) > F
    chosen = 0
    for p in range(3, isqrt(engine.DENSE_LIMIT) + 1, 2):
        if not is_prime(p):
            continue
        for k in range(2, 23):
            e = p**k
            if e > engine.DENSE_LIMIT:
                break
            for n in range(3, p, 2):
                if (p - 1) % n or n * -(-e // 64) <= engine._KEYED_FIXED_WORDS:
                    continue
                chosen += 1
                q = element_of_order(p, k, n)
                value, _, route = engine._route(q, e, False)
                assert route == "orbit", (p, k, n)
                full = engine._bfs_dense(e, engine._powers_of(q, e), False, gcd(e, q - 1))[0]
                assert value == full, (p, k, n)
    assert chosen == 1055


@pytest.mark.slow
def test_half_depth_stop_matches_full_search_to_2049():
    # every bitmask class with e <= 2049 takes the g-step search: the 45,641
    # with g = gcd(e, q - 1) > 1 step t by g, the other 20,476 by 1
    for e in range(2, 2050):
        for q, powers in _classes(e):
            value = engine._route(q, e, False, len(powers), powers)[0]
            assert value == _full_bitmask(e, powers)[0], (q, e)


def test_coset_hint_is_exact():
    # every divisor d of g = gcd(e, q - 1) is a valid step of the coset
    # search, d = 1 included, against the full-depth search
    for e in range(2, 301):
        for q, powers in _classes(e):
            full = _full_bitmask(e, powers)[0]
            g = gcd(e, q - 1)
            for d in (d for d in range(1, g + 1) if g % d == 0):
                assert engine._bfs_dense(e, powers, False, d) == (full, None), (q, e, d)


@pytest.mark.parametrize("q, e, d", [(4, 15, 5), (4, 15, 15), (2, 63, 3), (2, 63, 9),
                                     (10, 21, 7), (35, 128, 4)])
def test_coset_search_refuses_a_wrong_hint(q, e, d):
    # d divides e but not q - 1: some h - 1 is not a multiple of d
    assert e % d == 0 and (q - 1) % d
    with pytest.raises(MsumError, match="hint"):
        engine._bfs_dense(e, engine._powers_of(q, e), False, d)


def _run_under_one_gib(code: str, timeout: int) -> None:
    """Run `code` in a fresh interpreter under a 1 GiB address-space cap."""
    code = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n" + code
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr


def test_coset_search_of_order_three_mod_three_to_the_13_fits_one_gib():
    # q = 1 + 3^12 has order 3 mod 3^13 and g = 3^12: Y saturates at level 1,
    # so the search tests t = 3^12 alone; a search stepping t by 1 built
    # 3^12 / 2 levels of 3^13 bits and ran past a minute
    _run_under_one_gib("from msum.engine import m_value\n"
                       "assert m_value(531442, 1594323) == 3**12\n", timeout=60)
    # the upper bound, by the witness the witnessed m(531442, 1594323) gives
    # (test_witness_of_order_three_mod_three_to_the_13_fits_one_gib):
    # 3^12 - 1 ones and q^2 = 1 + 2 * 3^12
    assert verify_witness(531442, 1594323, (0,) * (3**12 - 1) + (2,))


def test_witness_of_order_three_mod_three_to_the_13_fits_one_gib():
    # the witness search keeps Y_1 alone, where Y saturates; keeping every
    # cumulative level, 3^12 of them of 3^13 bits, raised MemoryError under
    # the cap. The least power, 1, is taken at each step until q^2 is left
    _run_under_one_gib("from msum.engine import m, verify_witness\n"
                       "r = m(531442, 1594323)\n"
                       "assert r.value == 3**12 and verify_witness(531442, 1594323, r)\n"
                       "assert r.witness == (0,) * (3**12 - 1) + (2,)\n", timeout=60)


@pytest.mark.parametrize("q, e, mv", [(1025, 2**20, 1024), (4097, 2**22, 4096)])
def test_label_search_steps_by_g_and_stops_growing(q, e, mv):
    # H = {1 + g j} with g = q - 1 = sqrt(e) or e^(6/11) and order 1024: the
    # label route tests t = g first, and Y_1 = gZ/eZ stops growing at once;
    # stepping t by 1 over full-depth levels took 4.6 s and 80 s
    n = mul_order(q, e)
    assert n >= engine.LABEL_MIN_ORDER and gcd(e, q - 1) == mv
    assert m_value(q, e) == mv


def test_dense_dispatch_is_on_the_order(monkeypatch):
    routes = []
    label, bitmask, pair, orbit, coset = (engine._bfs_label, engine._bfs_dense, engine._pair,
                                          engine._m_orbit, engine._m_coset)

    def spy_label(e, pw, *args):
        routes.append(("label", pw.size))
        return label(e, pw, *args)

    def spy_bitmask(e, elements, *args, **kwargs):
        routes.append(("bitmask", len(elements)))
        return bitmask(e, elements, *args, **kwargs)

    def spy_pair(q, e):
        routes.append(("pair", 1 if q == 1 else 2))
        return pair(q, e)

    def spy_orbit(p_mod, p, q, n, *args):
        routes.append(("orbit", n))
        return orbit(p_mod, p, q, n, *args)

    def spy_m_two(q, e, n):
        pair = m_two(q, e, n)
        if pair:
            routes.append(("m=2", n))
        return pair

    def spy_coset(q, e, n, *args):
        routes.append(("coset", n))
        return coset(q, e, n, *args)

    m_two = engine._m_two
    monkeypatch.setattr(engine, "_bfs_label", spy_label)
    monkeypatch.setattr(engine, "_bfs_dense", spy_bitmask)
    monkeypatch.setattr(engine, "_pair", spy_pair)
    monkeypatch.setattr(engine, "_m_orbit", spy_orbit)
    monkeypatch.setattr(engine, "_m_two", spy_m_two)
    monkeypatch.setattr(engine, "_m_coset", spy_coset)
    # a tower-style subgroup: large e = 953^2, order 17, past the gate of
    # _route; m alone takes the orbit engine, a witness the bitmask
    q = element_of_order(953, 2, 17)
    m_prime_power(q, 953, 2)
    assert routes == [("orbit", 17)]
    routes.clear()
    m(q, 953**2)
    assert routes == [("bitmask", 17)]
    routes.clear()
    # a large prime order at a prime near 2^21 takes the coset route
    p = next(p for p in range(2**21 // 509 * 509 + 1, 2**22, 509) if is_prime(p))
    m_value(element_of_order(p, 1, 509), p)
    assert routes == [("coset", 509)]
    routes.clear()
    m(4, 4099)  # 4 has the odd order 2049, so -1 is not a power of it: m = 3
    assert routes == [("label", 2049)]
    routes.clear()
    m(2, 4099)  # 2 has order 4098 and 2^2049 = -1: no BFS
    assert routes == [("m=2", 4098)]
    routes.clear()
    assert engine._route(4, 4099, False) == (3, None, "coset")
    assert routes == [("coset", 2049)]
    # a table walk names the route of each class _route answers
    walked, route = [], engine._route

    def spy_route(q, e, want_witness, n=0, elements=()):
        answer = route(q, e, want_witness, n, elements)
        walked.append((answer[2], n))
        return answer

    monkeypatch.setattr(engine, "_route", spy_route)
    engine.clear_cache()
    m_table_for_modulus(4099)  # one class per order, a divisor of 4098 = 2 * 3 * 683
    engine.clear_cache()
    monkeypatch.setattr(engine, "_route", route)
    # the classes of order 1 and 2 take the pair route, no search, and the
    # other even orders, which hold -1 at a prime modulus, the m = 2 test
    # and no BFS; the class of order 2049 is not searched: its subgroup of
    # order 3 has m = 3, the lower bound of a class of odd order with g = 1
    assert sorted(walked) == [("bitmask", 3), ("coset", 683)] + \
        [("m_two", n) for n in (6, 1366, 4098)] + [("pair", 1), ("pair", 2)]
    routes.clear()
    m(4098, 4099)  # a witness of order 2 takes the pair route as well
    assert routes == [("pair", 2)]


def _order_two(e_max):
    """(q, e) for every q of order 2 mod e, 2 < e <= e_max: q^2 = 1, q != 1.
    Each is the one generator of its class {1, q}."""
    for e in range(3, e_max + 1):
        x = np.arange(2, e, dtype=np.int64)
        for q in x[x * x % e == 1].tolist():
            yield q, e


def test_order_two_scan_matches_bitmask_to_2049():
    pairs = list(_order_two(2049))
    assert len(pairs) == 8633
    for q, e in pairs:
        assert engine._pair(q, e)[0] == engine._bfs_dense(e, [1, q], False)[0], (q, e)
        assert engine._pair(q, e) == _pair_whole_pass(q, e), (q, e)


def test_order_two_scan_matches_oracle():
    for q, e in _order_two(500):
        assert engine._pair(q, e)[0] == m_value(q, e) == naive_m_oracle(q, e), (q, e)


def _check_order_two_witnesses(e_max):
    """The witness m(q, e) gives for each order-2 pair equals the one the
    bitmask BFS reads back (every level kept, hits of least element first)."""
    for q, e in _order_two(e_max):
        value, masks = _full_bitmask(e, [1, q])
        want = _full_witness(e, np.array([1, q], dtype=np.int64), _packed(e, masks))
        assert m(q, e) == MResult(value, want), (q, e)


def test_order_two_witness_matches_bitmask():
    _check_order_two_witnesses(600)


@pytest.mark.slow
def test_order_two_witness_matches_bitmask_to_2049():
    _check_order_two_witnesses(2049)


def _pair_whole_pass(q, e):
    """(m, least b) of _pair from one pass over every b in [0, e)."""
    b = np.arange(e, dtype=np.int64)
    s = b * (e - q) % e + b
    s[0] = e
    return int(s.min()), int(s.argmin())


def _crt_order_two(count, seed=1):
    """(q, e) for seeded composite e = e1 e2 < 2^22, e1 and e2 > 2 coprime,
    and q = 1 (mod e1), -1 (mod e2) by the CRT: q^2 = 1, q != +-1 (mod e)."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        e1, e2 = rng.randrange(3, 2048), rng.randrange(3, 2048)
        if gcd(e1, e2) == 1:
            pairs.append(((1 - 2 * e1 * pow(e1, -1, e2)) % (e1 * e2), e1 * e2))
    return pairs


@pytest.mark.parametrize("q, e", [
    (4194303, 4194304), (4194302, 4194303),  # q = -1: m = 2
    (2097153, 4194304), (1 << 20 | 1, 1 << 21),  # m = e/2
    (65504, 4194305), (1677721, 4194305), (2516584, 4194305),  # e = 5 * 397 * 2113
    (1, 3), (1, 4194304), (1, 4194305),  # q = 1: m = e, b = 0
] + _crt_order_two(8))
def test_scan_pair_early_stop_is_exact(q, e):
    assert pow(q, 2, e) == 1
    assert engine._pair(q, e) == _pair_whole_pass(q, e)


def test_order_two_beyond_the_dense_range():
    # e = 5 * 397 * 2113 > 2^22 is not an odd prime power and -1 is not a
    # power of q: the order-2 scan ended at 2^22, and this was refused
    t = time.perf_counter()
    assert m(1677721, 4194305) == MResult(10, (0,) * 5 + (1,) * 5)
    assert time.perf_counter() - t < 0.5
    assert m_value(2**23 + 1, 2**24) == 2**23
    t = time.perf_counter()
    with pytest.raises(ModulusTooLarge):
        m(2**23 + 1, 2**24)  # a witness of 2^23 terms is refused, not built
    assert time.perf_counter() - t < 1
    assert m_value(2**40 + 1, 2**41) == 2**40  # past the orbit engine's range


def test_order_two_witness_takes_the_scan(monkeypatch):
    routes = []
    pair = engine._pair

    def spy_pair(q, e):
        routes.append((q, e))
        return pair(q, e)

    def refuse(*args, **kwargs):
        raise AssertionError("an order-2 query took the bitmask BFS")

    monkeypatch.setattr(engine, "_pair", spy_pair)
    monkeypatch.setattr(engine, "_bfs_dense", refuse)
    for q, e in [(6, 7), (4, 15), (4097, 8192), (4194302, 4194303)]:
        routes.clear()
        result = m(q, e)
        assert routes == [(q, e)], (q, e)
        assert result.value == m_value(q, e) and verify_witness(q, e, result), (q, e)
        assert len(routes) == 2, (q, e)


def test_order_two_witness_with_huge_m_fits_one_gib():
    # the bitmask BFS kept an e-bit level per step: m = 2^21 levels of 512 KiB
    # at e = 2^22, which raised MemoryError under the cap and was OOM-killed
    # without one; the pair route holds a few ints
    _run_under_one_gib("from msum.engine import m, verify_witness\n"
                       "for q, e in ((2097153, 1 << 22), (131073, 1 << 18)):\n"
                       "    r = m(q, e)\n"
                       "    assert r.value == e // 2 and verify_witness(q, e, r), (q, e)\n",
                       timeout=120)

def test_table_walks_answer_the_class_of_one_in_closed_form(monkeypatch):
    orders = []
    label, bitmask = engine._bfs_label, engine._bfs_dense

    def spy_label(e, pw, *args):
        orders.append(pw.size)
        return label(e, pw, *args)

    def spy_bitmask(e, elements, *args, **kwargs):
        orders.append(len(elements))
        return bitmask(e, elements, *args, **kwargs)

    monkeypatch.setattr(engine, "_bfs_label", spy_label)
    monkeypatch.setattr(engine, "_bfs_dense", spy_bitmask)
    engine.clear_cache()
    for e in range(2, 301):
        rows = m_table_for_modulus(e)
        assert (rows.q[0], rows.m[0], rows.n[0]) == (1, e, 1), e
    engine.clear_cache()
    assert orders and 1 not in orders  # no search of the subgroup {1}


def _walk_routed(monkeypatch, moduli):
    """{e: the table _walk(e) builds} and {e: the set of class indices
    _route answered}: the classes of a walk that _route does not answer are
    settled by the bounds of the walk."""
    tables, routed, route = {}, {}, engine._route

    def spy_route(q, e, want_witness, n=0, elements=()):
        routed.setdefault(e, []).append(q)
        return route(q, e, want_witness, n, elements)

    monkeypatch.setattr(engine, "_route", spy_route)
    for e in moduli:
        tables[e] = engine._walk(e)
    monkeypatch.setattr(engine, "_route", route)
    units = {e: engine._units(e) for e in moduli}
    return tables, {e: set(tables[e].cls[np.searchsorted(units[e], routed.get(e, []))].tolist())
                    for e in moduli}


def test_walk_matches_the_search_and_the_full_bitmask_to_300(monkeypatch):
    # every class of every e <= 300, settled by the bounds or answered by
    # _route, against _route's search and the full-depth bitmask
    tables, routed = _walk_routed(monkeypatch, range(2, 301))
    settled = 0
    for e, table in tables.items():
        classes = list(_classes(e))
        assert table.order.tolist() == [len(powers) for _, powers in classes], e
        settled += len(classes) - len(routed[e])
        for value, (q, powers) in zip(table.values.tolist(), classes):
            search = engine._route(q, e, False, len(powers), powers)[0]
            assert value == search == _full_bitmask(e, powers)[0], (q, e)
    assert settled > 0


def test_cold_walk_to_2049_routes_54964_classes(monkeypatch):
    # 76,939 classes; the bounds of the walk settle 21,975 with no search
    tables, routed = _walk_routed(monkeypatch, range(1, 2050))
    assert sum(table.values.size for table in tables.values()) == 76939
    assert sum(map(len, routed.values())) == 54964


@pytest.mark.slow
def test_every_settled_class_to_2049_equals_a_search(monkeypatch):
    tables, routed = _walk_routed(monkeypatch, range(2, 2050))
    settled = 0
    for e, table in tables.items():
        for c, (q, powers) in enumerate(_classes(e)):
            if c not in routed[e]:
                settled += 1
                search = engine._route(q, e, False, len(powers), powers)[0]
                assert table.values[c] == search, (q, e)
    assert settled == 21975


def test_walk_refuses_a_search_above_a_subgroup_m(monkeypatch):
    # mod 1001 the searched classes of order 60 with m = 4 have a maximal
    # subgroup of m U = 4: a search that reports one more exceeds U
    route, faulted = engine._route, []

    def over_report(q, e, want_witness, n=0, elements=()):
        answer = route(q, e, want_witness, n, elements)
        if (e, n) == (1001, 60):
            faulted.append(q)
            return (answer[0] + 1, *answer[1:])
        return answer

    monkeypatch.setattr(engine, "_route", over_report)
    with pytest.raises(MsumError, match="above 4, the m of a subgroup"):
        engine._walk(1001)
    assert faulted


def test_walk_refuses_a_subgroup_m_below_the_lower_bound(monkeypatch):
    # mod 19 the class of order 9 has one maximal subgroup, of order 3; a
    # search that reports m = 2 for it, where -1 is not in the subgroup, puts
    # U = 2 below the class's lower bound L0 = 3
    route = engine._route

    def under_report(q, e, want_witness, n=0, elements=()):
        answer = route(q, e, want_witness, n, elements)
        return (2, *answer[1:]) if (e, n) == (19, 3) else answer

    monkeypatch.setattr(engine, "_route", under_report)
    with pytest.raises(MsumError, match="engine bug"):
        engine._walk(19)


@pytest.mark.parametrize("q", [2, 3])
def test_large_dense_modulus_is_fast(q):
    # one label BFS level; the bitmask route took 85 s (q = 2) and 28 s (q = 3)
    result = m(q, 1000003)
    assert result.value == 2 and verify_witness(q, 1000003, result)


# (q, e, n, witness) of every dense perfbench query with m = 3, seeds 1-3,
# n = ord(q) on both sides of LABEL_MIN_ORDER, as the backtrack gave them
# that takes, at each level, the hit of least element q^j (not of least
# exponent j): several of these change under any other tie-break
DENSE_WITNESS_PINS = [
    # seed 1
    (648, 1279, 9, (0, 3, 6)), (576, 1201, 75, (0, 25, 50)), (1886, 2161, 15, (0, 5, 10)),
    (225, 2341, 117, (0, 39, 78)), (2865, 5011, 15, (0, 5, 10)), (2343, 4423, 201, (0, 67, 134)),
    (1885, 8863, 21, (0, 7, 14)), (7069, 9697, 303, (0, 167, 252)), (11768, 18253, 27, (0, 9, 18)),
    (3844, 19081, 477, (0, 257, 342)), (10772, 37489, 33, (0, 11, 22)),
    (17209, 34147, 813, (0, 149, 525)), (5697, 70921, 45, (0, 15, 30)),
    (3511, 69499, 1287, (0, 698, 1256)), (140988, 144439, 57, (0, 19, 38)),
    (73277, 153913, 1749, (0, 214, 539)), (100204, 270601, 75, (0, 25, 50)),
    (47608, 277993, 3159, (0, 517, 2319)),
    # seed 2
    (104, 1297, 9, (0, 3, 6)), (751, 1201, 75, (0, 25, 50)), (100, 2161, 15, (0, 5, 10)),
    (637, 2341, 117, (0, 39, 78)), (2632, 4951, 15, (0, 5, 10)), (3886, 4423, 201, (0, 67, 134)),
    (6820, 9283, 21, (0, 7, 14)), (3859, 8821, 315, (0, 293, 305)), (14390, 18253, 27, (0, 9, 18)),
    (18362, 20011, 435, (0, 36, 160)), (19258, 38611, 33, (0, 11, 22)),
    (21015, 34981, 795, (0, 126, 374)), (36608, 68491, 45, (0, 15, 30)),
    (19073, 77419, 1173, (0, 51, 503)), (69555, 132679, 63, (0, 21, 42)),
    (84663, 149521, 1869, (0, 113, 1613)), (67506, 266701, 75, (0, 25, 50)),
    (117313, 319117, 2751, (0, 917, 1834)),
    # seed 3
    (184, 1279, 9, (0, 3, 6)), (1126, 1201, 75, (0, 25, 50)), (2151, 2161, 15, (0, 5, 10)),
    (1288, 2341, 117, (0, 39, 78)), (2447, 4861, 15, (0, 5, 10)), (2708, 4261, 213, (0, 19, 146)),
    (8025, 8863, 21, (0, 7, 14)), (5327, 8821, 315, (0, 37, 160)), (17816, 18253, 27, (0, 9, 18)),
    (2772, 17443, 513, (0, 287, 393)), (29641, 38281, 33, (0, 11, 22)),
    (7011, 39043, 723, (0, 207, 528)), (33665, 68491, 45, (0, 15, 30)),
    (23283, 77023, 1167, (0, 428, 887)), (85950, 146719, 57, (0, 19, 38)),
    (37182, 160357, 1743, (0, 1123, 1531)), (47694, 295873, 69, (0, 23, 46)),
    (311535, 319117, 2751, (0, 917, 1834)),
]


def test_dense_witness_pins():
    routes = set()
    for q, e, n, witness in DENSE_WITNESS_PINS:
        assert mul_order(q, e) == n, (q, e)
        routes.add(n >= engine.LABEL_MIN_ORDER)
        assert m(q, e) == MResult(3, witness), (q, e)
    assert routes == {False, True}


def _coset_levels_built(monkeypatch, q, e):
    """(m, r, route, the number of levels _coset_level built) of the
    witnessed m(q, e), r the smallest prime divisor of the order of q."""
    built, level = [], engine._coset_level

    def spy(*args):
        built.append(1)
        return level(*args)

    monkeypatch.setattr(engine, "_coset_level", spy)
    value, _, route = engine._route(q, e, True)
    monkeypatch.setattr(engine, "_coset_level", level)
    return value, smallest_prime_divisor(mul_order(q, e)), route, len(built)


def test_coset_witness_builds_no_level_past_r_minus_2(monkeypatch):
    # levels S_2, ..., S_min(m - 1, r - 2): 0 in S_m puts -1 in S_(m-1), so
    # the backtrack never reads S_(m-1), and at the closed stop m = r no
    # search builds S_(r-1); r = 3 builds nothing
    for q, e, n, _ in DENSE_WITNESS_PINS:
        if n >= engine.LABEL_MIN_ORDER:
            assert _coset_levels_built(monkeypatch, q, e) == (3, 3, "coset", 0), (q, e)
    assert _coset_levels_built(monkeypatch, 47608, 277993) == (3, 3, "coset", 0)
    assert _coset_levels_built(monkeypatch, 16, 2069) == (3, 11, "coset", 1)
    assert _coset_levels_built(monkeypatch, 52802, 60041) == (5, 5, "coset", 2)


@pytest.mark.parametrize("q, e", [(4, 7), (4, 4099), (47608, 277993)])
def test_dense_witness_never_asks_for_the_level_below_m(monkeypatch, q, e):
    asked, backtrack = [], engine._dense_witness

    def spy(e, pw, value, member):
        def watched(k, x):
            asked.append(value - k)
            return member(k, x)
        return backtrack(e, pw, value, watched)

    monkeypatch.setattr(engine, "_dense_witness", spy)
    result = m(q, e)
    assert result.value == 3 and verify_witness(q, e, result)
    assert asked and min(asked) == 2  # k = m - 2 is the first level asked


def test_witness_search_keeps_no_level_it_will_not_read():
    # the keep search of the bitmask step builds no level past
    # max(m - 2, ceil(m / 2)), the deeper of the witness's last read and
    # the search's own last level
    deepest = 0
    for e in range(5, 120):
        for q, powers in _classes(e):
            if len(powers) >= 3:
                value, levels = engine._bfs_dense(e, powers, True, gcd(e, q - 1))
                assert len(levels) <= max(value - 2, (value + 1) // 2), (q, e)
                deepest = max(deepest, value)
    assert deepest >= 6


def test_label_range_pins_take_the_coset_route():
    pins = [(q, e, witness) for q, e, n, witness in DENSE_WITNESS_PINS
            if n >= engine.LABEL_MIN_ORDER]
    assert len(pins) == 9
    for q, e, witness in pins:
        assert engine._route(q, e, True) == (3, witness, "coset"), (q, e)


def _dense_answer(q, e, n):
    """(m, witness) of the dense step <q> of order n mod e takes today, the
    bitmask below LABEL_MIN_ORDER and the label step from it, every level
    the witness search keeps read back by _dense_witness."""
    pw = engine._power_table(q, e, n)
    if n < engine.LABEL_MIN_ORDER:
        value, levels = engine._bfs_dense(e, pw.tolist(), True)
    else:
        value, levels = engine._bfs_label(e, pw, True)
    return value, engine._dense_witness(e, pw, value, engine._level_member(e, levels))


def _check_coset_route(e_max):
    """The number of generator classes of odd order n >= 3 at the primes
    4 < e <= e_max, after checking the coset route, called directly, against
    the dense step's m and witness, with and without a witness."""
    classes = 0
    for e in range(5, e_max + 1):
        if not is_prime(e):
            continue
        for q, powers in _classes(e):
            n = len(powers)
            if n % 2 and n >= 3:
                value, witness = _dense_answer(q, e, n)
                assert engine._m_coset(q, e, n, True) == (value, witness), (q, e)
                assert engine._m_coset(q, e, n, False) == (value, None), (q, e)
                classes += 1
    return classes


def test_coset_route_matches_the_dense_step():
    assert _check_coset_route(2049) == 1045


@pytest.mark.slow
def test_coset_route_matches_the_dense_step_to_8209():
    assert _check_coset_route(8209) == 4467


@pytest.mark.slow
def test_coset_route_matches_the_dense_step_on_perfbench_queries(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from inputs import queries

    checked = 0
    for seed in range(1, 11):
        for q, e, n in queries(seed):
            if e <= engine.DENSE_LIMIT and n % 2:
                value, witness = _dense_answer(q, e, n)
                assert engine._m_coset(q, e, n, True) == (value, witness), (q, e)
                assert engine._m_coset(q, e, n, False) == (value, None), (q, e)
                assert m(q, e) == MResult(value, witness), (q, e)
                checked += 1
    assert checked == 180


QUERY_DIGESTS = Path(__file__).parent / "golden" / "queries_1_10.txt"


def _query_digests(monkeypatch):
    """{seed: the sha256 of the JSON list of [q, e, m, witness, route] that
    _route gives the witnessed perfbench queries of that seed}, seeds 1-10."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from inputs import queries

    return {seed: hashlib.sha256(json.dumps(
        [[q, e, *engine._route(q, e, True)] for q, e, _ in queries(seed)]).encode()).hexdigest()
        for seed in range(1, 11)}


def test_perfbench_query_answers_match_their_digests(monkeypatch):
    # route, m and witness of all 480 queries: m never changes; a witness or
    # route changed on purpose is a new file, said so where the change is recorded
    want = {int(seed): digest for seed, digest in
            (line.split() for line in QUERY_DIGESTS.read_text().splitlines())}
    assert _query_digests(monkeypatch) == want


@pytest.mark.parametrize("q, e, mv", [(4, 7, 3), (4, 4099, 3), (47608, 277993, 3)],
                         ids=["bitmask", "label", "coset"])
@pytest.mark.parametrize("fault", ["length", "sum"])
def test_a_wrong_dense_witness_raises(monkeypatch, q, e, mv, fault):
    backtrack = engine._dense_witness

    def wrong(e, pw, m, member):
        if fault == "length":  # a vanishing sum of 2m terms
            return backtrack(e, pw, m, member) * 2
        return (0,) * m  # m terms, each 1: the sum is m, not 0 mod e

    monkeypatch.setattr(engine, "_dense_witness", wrong)
    with pytest.raises(MsumError, match="fails its check"):
        m(q, e)
    with pytest.raises(MsumError, match="fails its check"):
        m_prime_power(q, e, 1, want_witness=True)
    assert m_value(q, e) == mv  # no witness, nothing to check


@pytest.mark.parametrize("q, e", [(2, 4099), (2, 4194305)], ids=["dense", "beyond-dense"])
@pytest.mark.parametrize("fault", ["length", "sum"])
def test_a_wrong_m_two_witness_raises(monkeypatch, q, e, fault):
    m_two = engine._m_two

    def wrong(q, e, n):
        pair = m_two(q, e, n)
        if fault == "length":  # a vanishing sum of 4 terms
            return pair * 2
        return (0, 0)  # 1 + 1 = 2, not 0 mod e

    monkeypatch.setattr(engine, "_m_two", wrong)
    with pytest.raises(MsumError, match="fails its check"):
        m(q, e)
    assert m_value(q, e) == 2  # no witness, nothing to check


def test_orbit_engine_matches_dense():
    for p, k, n in [(23, 3, 11), (53, 2, 13), (11, 2, 5), (101, 2, 25), (31, 1, 5)]:
        q = element_of_order(p, k, n)
        dense = m_value(q, p**k)
        mv, wit = engine._m_orbit(p**k, p, q, n, want_witness=True)
        assert mv == dense, (p, k, n)
        assert verify_witness(q, p**k, wit) and len(wit) == mv


def test_large_prime_power_routes_to_orbit():
    q = element_of_order(23, 5, 11)
    result = m(q, 23**5)
    assert result.value == 11
    assert verify_witness(q, 23**5, result)


def test_orbit_route_finds_the_prime_power_shape_without_trial_division(monkeypatch):
    # trial division of 1048571^2 up to 2^20 took 35-62 ms of a 42-54 ms query
    factored = []
    trial_factor = modular.trial_factor

    def spy(n):
        factored.append(n)
        return trial_factor(n)

    monkeypatch.setattr(modular, "trial_factor", spy)
    e = 1048571**2
    q = element_of_order(1048571, 2, 5)
    factored.clear()
    assert m(q, e).value == 5
    assert m_value(q, e) == 5
    assert e not in factored and factored


def test_m_two_takes_no_search(monkeypatch):
    # 3 has order 38,130 mod the prime 4194301: the label BFS took 115-153 ms
    def no_search(*args):
        raise AssertionError("a search ran")

    for name in ("_bfs_label", "_bfs_dense", "_m_orbit", "_pair"):
        monkeypatch.setattr(engine, name, no_search)
    assert m_value(3, 4194301) == 2
    assert m(3, 4194301) == MResult(2, (0, 19065))
    assert m(2, 4194305) == MResult(2, (0, 22))  # beyond the dense range, composite


def test_modulus_too_large():
    # beyond dense range, not an odd prime power, and -1 is not a power of q
    with pytest.raises(ModulusTooLarge):
        m(3, (1 << 24) + 4)
    assert mul_order(2, 4194307) == 50940
    with pytest.raises(ModulusTooLarge):
        m(2, 4194307)
    # 2 has order 46 mod 2^23 + 1 and 2^23 = -1: the m = 2 test answers it
    sub = unit_subgroup(2, (1 << 23) + 1)
    assert sub.order == 46
    assert m(sub.generator, sub.modulus) == MResult(2, (0, 23))


def test_modulus_beyond_orbit_range_fails_at_once():
    # 2^60 - 93 is prime: trial division up to its square root, run before the
    # orbit engine's range check, went past 10 s
    code = ("from msum.engine import m\nfrom msum.errors import ModulusTooLarge\n"
            "try:\n    m(2, 2**60 - 93)\nexcept ModulusTooLarge:\n    print('refused')")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=10)
    assert proc.stdout.strip() == "refused", proc.stderr


def test_m_prime_power_dense_and_witness():
    mv, wit = m_prime_power(9, 11, 2, want_witness=True)
    assert mv == 5 and verify_witness(9, 121, wit)
    mv, _ = m_prime_power(12, 11, 2)
    assert mv == 11  # 12 = 1 (mod 11), gcd(121, 11) = 11


def _orbit_cases():
    """(p, k, q, n) with 2 <= n = ord(q) prime to p: every q for p^k <= 300;
    for a sample of 300 < p^k <= 10^5, two generators of each order n <= 120
    (the engine's cost per stored orbit grows like n^2), with the composite
    orders 25, 35 and 119 one level up."""
    for p in range(3, 300, 2):
        for k in range(1, 6):
            if is_prime(p) and p**k <= 300:
                for q in range(2, p**k):
                    n = mul_order(q, p**k) if q % p else 1
                    if n >= 2 and n % p:
                        yield p, k, q, n
    sample = random.Random(7).sample(
        [(p, k) for p in range(3, 10**5, 2) if is_prime(p)
         for k in range(1, 4) if 300 < p**k <= 10**5], 40)
    for p, k in sample + [(101, 2), (71, 2), (239, 2)]:
        orders = {1}
        for r, a in factorize(p - 1):
            orders |= {d * r**i for d in orders for i in range(1, a + 1)}
        for n in sorted(orders - {1}):
            if n <= 120:
                q = element_of_order(p, k, n)
                for g in {q, pow(q, n - 1, p**k)}:
                    yield p, k, g, n


def test_orbit_engine_at_real_cap_matches_dense_and_oracle():
    oracle = {}  # the units mod p^k are cyclic: the order fixes the subgroup
    branches, orders = set(), set()
    for p, k, q, n in _orbit_cases():
        e = p**k
        r = smallest_prime_divisor(n)
        mv, wit = engine._m_orbit(e, p, q, n, want_witness=True)
        assert mv == m_value(q, e), (p, k, q)
        if e <= 300:
            if (e, n) not in oracle:
                oracle[e, n] = naive_m_oracle(q, e)
            assert mv == oracle[e, n], (p, k, q)
        assert verify_witness(q, e, MResult(mv, wit)), (p, k, q, wit)
        branches.add(mv == r)
        orders.add(n)
    assert branches == {False, True}
    assert {25, 35, 119} <= orders


def test_orbit_route_passes_only_orders_prime_to_p():
    # _route refuses an order divisible by p, here (1 + p) of order p^2 ...
    with pytest.raises(ModulusTooLarge, match="order drop"):
        m(2054, 2053**3)
    # ... so every order it passes divides p - 1, and the closed stop's
    # h = q^(n/r) has h - 1 a unit: the precondition _m_orbit does not test
    for p, k, q, n in _orbit_cases():
        e = p**k
        assert (p - 1) % n == 0, (p, k, q)
        assert gcd(pow(q, n // smallest_prime_divisor(n), e) - 1, e) == 1, (p, k, q)


# (q, e, m, witness) with e > 2^31, where _mulmod_vec takes its split branch,
# as the orbit engine gave them before its levels were built by add tables
ORBIT_PINS_ABOVE_2_31 = [
    # m < r: a collision of two half-length sums
    (1366559171, 2147486819, 6, (11, 23, 54, 208, 215, 318)),  # prime e, n = 17 * 19
    (1802848008, 2147484197, 8, (1, 17, 40, 102, 112, 114, 133, 139)),  # prime e, n = 11 * 13
    (21046810068, 381481**2, 6, (136, 161, 189, 213, 247, 280)),  # n = 17^2
    # closed stops, m = r = n: the orbit queries of perfbench seed 1 above 2^31
    (1997470394, 2212855681, 5, tuple(range(5))),
    (68743079699, 143137741391, 5, tuple(range(5))),
    (843445469, 2312744281, 7, tuple(range(7))),
    (56557909468, 141339344329, 7, tuple(range(7))),
    (1691308669, 2191831489, 11, tuple(range(11))),
    (112902478745, 152872916923, 11, tuple(range(11))),
    (1576392557, 2308706401, 13, tuple(range(13))),
    (18310753879, 142809632083, 13, tuple(range(13))),
]


@pytest.mark.parametrize("q, e, mv, witness", ORBIT_PINS_ABOVE_2_31)
def test_orbit_witness_pins_above_2_31(q, e, mv, witness):
    assert e > 1 << 31
    n = mul_order(q, e)
    assert (mv < smallest_prime_divisor(n)) == (mv != n)  # the branch the pin covers
    assert m(q, e) == MResult(mv, witness)
    assert verify_witness(q, e, MResult(mv, witness))


# (q, e, m, witness) of orbit-engine collisions, m < r, as its scalar
# backtrack gave them: at every level the least exponent that fits is taken,
# so a backtrack taking any other hit changes these witnesses
ORBIT_LEAST_EXPONENT_PINS = [
    (20728, 32719, 7, (6, 7, 8, 8, 9, 10, 16)),  # n = 19
    (17793, 32719, 5, (9, 16, 18, 18, 31)),  # n = 41
    (10193, 68891, 5, (20, 25, 48, 71, 75)),  # n = 83
    (5448, 7993, 5, (2, 4, 10, 12, 27)),  # n = 37
]


@pytest.mark.parametrize("q, e, mv, witness", ORBIT_LEAST_EXPONENT_PINS)
def test_orbit_witness_takes_least_exponents(q, e, mv, witness):
    n = mul_order(q, e)
    r = smallest_prime_divisor(n)
    assert is_prime(e) and mv < r
    assert engine._m_orbit(e, e, q, n, want_witness=True) == (mv, witness)
    assert verify_witness(q, e, MResult(mv, witness))


# (p, k, n, q, m, witness) of the orbit engine at p^k, k >= 2, as it gave them
# while every level was keyed by orbit minima: the order-19 Example 16 rows at
# p^3 and p^4, two Example 17 rows at p^2 and the 239^4 closed stops, through
# m_prime_power; then two collisions at p^2 and the closed stop at 239^4
# again, through _m_orbit
ORBIT_PRIME_POWER_ROUTE_PINS = [
    (571, 3, 19, 23982978, 16, (0, 0, 1, 3, 3, 3, 5, 5, 8, 9, 14, 14, 15, 15, 15, 18)),
    (571, 4, 19, 48428029838, 19, tuple(range(19))),
    (761, 3, 19, 39159275, 17, (0, 2, 4, 4, 4, 5, 5, 5, 5, 7, 9, 11, 11, 15, 15, 16, 16)),
    (761, 4, 19, 24278268730, 19, tuple(range(19))),
    (2311, 2, 35, 3599329, 5, (0, 7, 14, 21, 28)),
    (3851, 2, 35, 6572844, 5, (0, 7, 14, 21, 28)),
    (239, 4, 17, 1271202971, 17, tuple(range(17))),
    (239, 4, 119, 1785899586, 7, (0, 17, 34, 51, 68, 85, 102)),
]
ORBIT_PRIME_POWER_DIRECT_PINS = [
    (239, 2, 119, 11521, 4, (25, 46, 61, 107)),
    (911, 2, 91, 281204, 6, (1, 8, 22, 45, 51, 71)),
    (239, 4, 17, 1271202971, 17, tuple(range(17))),
]


def test_orbit_prime_power_pins(monkeypatch):
    built = []
    key_table = engine._key_table

    def spy(orb):
        built.append(orb.p_mod)
        return key_table(orb)

    monkeypatch.setattr(engine, "_key_table", spy)
    for p, k, n, q, mv, witness in ORBIT_PRIME_POWER_ROUTE_PINS:
        assert p**k > engine.DENSE_LIMIT and element_of_order(p, k, n) == q
        assert m_prime_power(q, p, k, want_witness=True) == (mv, witness), (p, k, n)
        assert verify_witness(q, p**k, MResult(mv, witness))
    for p, k, n, q, mv, witness in ORBIT_PRIME_POWER_DIRECT_PINS:
        assert element_of_order(p, k, n) == q
        assert engine._m_orbit(p**k, p, q, n, want_witness=True) == (mv, witness), (p, k, n)
        assert verify_witness(q, p**k, MResult(mv, witness))
    # the collisions at 571^3, 761^3 and 911^2 backtrack through keyed levels
    assert {571**3, 761**3, 911**2} <= set(built)


@pytest.mark.parametrize("shape", [(0,), (1000,), (40, 25), (7, 1)])
def test_sorted_unique_equals_np_unique(shape):
    rng = np.random.default_rng(sum(shape))
    for x in (rng.integers(0, 300, size=shape), rng.integers(-2**40, 2**40, size=shape),
              np.full(shape, 12345, dtype=np.int64)):
        got = engine._sorted_unique(x)
        assert got.dtype == np.int64 and np.array_equal(got, np.unique(x))


def _prime_1_mod_2n(n, bits):
    p = ((1 << bits) // (2 * n) + 1) * 2 * n + 1  # p = 1 (mod 2n) above 2^bits
    while not is_prime(p):
        p += 2 * n
    return p


@pytest.mark.parametrize("n", [2, 19, 119])
@pytest.mark.parametrize("bits", [30, 37])
def test_orbit_min_grid_equals_scalar_orbit_minimum(n, bits):
    # a prime modulus has no key table: the grid builder keys each cell by
    # its orbit minimum
    p = _prime_1_mod_2n(n, bits)
    q = element_of_order(p, 1, n)
    powers = [pow(q, i, p) for i in range(n)]
    rng = random.Random(n * bits)
    base = [rng.randrange(p) for _ in range(12)] + [0, 1, p - 1]
    orb = engine._Orbits(p, p, q, np.array(powers, dtype=np.int64))
    grid = engine._grid_keys(np.array(base, dtype=np.int64), orb)
    assert grid.shape == (len(base), n)
    for row, b in zip(grid.tolist(), base):
        assert row == [min((b + x) * w % p for w in powers) for x in powers]


def _keyed(p, k, n):
    """The _Orbits of an element of order n mod p^k, with its key table."""
    e = p**k
    q = element_of_order(p, k, n)
    orb = engine._Orbits(e, p, q, engine._power_table(q, e, n))
    return orb._replace(mult=engine._key_table(orb))


@pytest.mark.parametrize("p, k, n", [(23, 5, 11), (761, 3, 19), (4423, 2, 67), (239, 4, 119)])
def test_keyed_grid_names_each_orbit_by_one_key(p, k, n):
    # with a key table a cell's key need not be its orbit minimum: equal keys
    # must mark exactly the cells of one orbit, and each key lie in its orbit
    orb = _keyed(p, k, n)
    e, powers = p**k, orb.pw.tolist()
    rng = random.Random(p * k)
    base = [rng.randrange(e) for _ in range(10)] + [0, 1, e - 1]
    base += [(p * rng.randrange(e // p) - powers[j]) % e for j in (0, 1, n - 1)]  # cells 0 (mod p)
    grid = engine._grid_keys(np.array(base, dtype=np.int64), orb)
    assert grid.shape == (len(base), n)
    names = {}
    for row, b in zip(grid.tolist(), base):
        for key, x in zip(row, powers):
            orbit = {(b + x) * w % e for w in powers}
            assert key in orbit
            assert names.setdefault(min(orbit), key) == key
    assert len(set(names.values())) == len(names)
    assert any(b % p == 0 for b in ((c + x) % e for c in base for x in powers))


_KEYED_SHAPES = [(p, k, n) for p in range(3, 3000) if is_prime(p) for k in (2, 3, 4)
                 if p**k < engine.SPARSE_LIMIT for n in range(2, p) if (p - 1) % n == 0]


@given(st.sampled_from(_KEYED_SHAPES), st.lists(st.integers(0, 2**40), min_size=1, max_size=8),
       st.lists(st.integers(0, 2**40), max_size=3))
def test_orbit_key_is_one_element_per_orbit(shape, units, multiples):
    # units, multiples of p and 0, reduced and not (x < 2 p^k, as grid cells
    # come): the key is constant on each orbit {x q^i}, lies in it, and two
    # elements share a key exactly when they share an orbit minimum
    p, k, n = shape
    orb = _keyed(p, k, n)
    e, powers = p**k, orb.pw.tolist()
    xs = [u % e for u in units] + [p * v % e for v in multiples] + [0]
    key = dict(zip(xs, engine._orbit_key(np.array(xs, dtype=np.int64), orb).tolist()))
    for x in xs:
        orbit = [x * w % e for w in powers]
        assert key[x] in orbit
        keys = engine._orbit_key(np.array(orbit + [y + e for y in orbit], dtype=np.int64), orb)
        assert set(keys.tolist()) == {key[x]}
    mins = dict(zip(xs, engine._orbit_min(np.array(xs, dtype=np.int64), orb.pw, orb.q, e).tolist()))
    for x in xs:
        assert mins[x] == min(x * w % e for w in powers)
        for y in xs:
            assert (key[x] == key[y]) == (mins[x] == mins[y])


@pytest.mark.parametrize("n", [2, 19, 119, 257])
@pytest.mark.parametrize("bits", [30, 37])
@pytest.mark.parametrize("shorter", [True, False], ids=["products", "steps"])
def test_orbit_min_equals_scalar_orbit_minimum(monkeypatch, n, bits, shorter):
    # products: at most _ORBIT_MIN_CELLS cells, or fewer elements than n (in
    # slices past the cells, at n = 257), one 2-D product of the powers and
    # the elements per slice; steps: more cells and at least n elements, n - 1
    # 1-D steps of the whole array; bits 37 takes the limb split beyond 2^31
    cells = engine._ORBIT_MIN_CELLS
    sizes = [n - 1, cells // n] if shorter else [max(n, cells // n + 1)]
    p = _prime_1_mod_2n(n, bits)
    q = element_of_order(p, 1, n)
    powers = [pow(q, i, p) for i in range(n)]
    rng = random.Random(n * bits)
    dims, mulmod = [], engine._mulmod_vec

    def spy(x, c, p_mod):
        dims.append(x.ndim)
        return mulmod(x, c, p_mod)

    monkeypatch.setattr(engine, "_mulmod_vec", spy)
    for size in sizes:
        x = ([0, 1, p - 1, p, 2 * p - 1] + [rng.randrange(2 * p) for _ in range(size)])[:size]
        got = engine._orbit_min(np.array(x, dtype=np.int64), np.array(powers, dtype=np.int64),
                                q, p)
        assert got.dtype == np.int64
        assert got.tolist() == [min(v * w % p for w in powers) for v in x]
    assert set(dims) == {2 if shorter else 1}


def test_orbit_engine_never_calls_np_unique(monkeypatch):
    # np.unique hashes int64 input, many times slower than the sort it replaced
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called in the orbit engine")

    monkeypatch.setattr(engine.np, "unique", refuse)
    q19 = element_of_order(571, 4, 19)
    mv, wit = engine._m_orbit(571**4, 571, q19, 19, want_witness=True)  # levels 2 to 9
    assert mv == 19 and verify_witness(q19, 571**4, MResult(mv, wit))


def test_orbit_engine_large_order_takes_vector_steps(monkeypatch):
    # 4194319 is a prime just past the dense range and 2 has order
    # n = 3 * 699053 there, so the search stops closed at r = 3. Negating a
    # level by n - 1 one-element mulmods takes 16 s here, and the powers by n
    # calls to pow seconds more: both must be O(log n) vector steps.
    calls = []
    mulmod = engine._mulmod_vec

    def counted(*args):
        calls.append(args)
        return mulmod(*args)

    monkeypatch.setattr(engine, "_mulmod_vec", counted)
    e = 4194319
    n = mul_order(2, e)
    assert is_prime(e) and e > engine.DENSE_LIMIT and n == 3 * 699053
    result = m(2, e)
    assert result.value == 3 and verify_witness(2, e, result)
    assert result.witness == (0, n // 3, 2 * n // 3)
    assert 0 < len(calls) <= 2 * n.bit_length()


def test_orbit_closed_stop():
    q17, q119 = element_of_order(239, 4, 17), element_of_order(239, 4, 119)
    assert m_prime_power(q17, 239, 4, want_witness=True) == (17, tuple(range(17)))
    # r = 7: the order-7 subgroup <q^17>
    assert m_prime_power(q119, 239, 4, want_witness=True) == (7, tuple(range(0, 119, 17)))


# (p, k, n) of orbit searches whose levels the multiset step builds: prime n,
# composite n < 64 with r >= 5, and small p^k where the sums of distinct
# canonical multisets collide
MULTISET_SHAPES = [(11, 3, 5), (31, 4, 5), (23, 4, 11), (23, 5, 11), (103, 3, 17),
                   (239, 4, 17), (571, 2, 19), (571, 4, 19), (761, 3, 19), (101, 3, 25),
                   (71, 4, 35), (197, 3, 49), (331, 3, 55)]


def _spy_levels(monkeypatch, check):
    """Record (s + 1, count) of each level the multiset step builds, and the
    number of grid rows keyed; with `check`, test each multiset level against
    the grid over its parents' sums and, while it has at most 5,000
    multisets, against every multiset's sum."""
    served, grid_rows = [], []
    step, grid_keys = engine._multiset_level, engine._grid_keys

    def spy_step(orb, sums, masks, s, count, keep):
        level, sets = step(orb, sums, masks, s, count, keep)
        served.append((s + 1, count))
        if check:
            assert np.array_equal(level, engine._sorted_unique(grid_keys(sums, orb))), s + 1
            assert sets is None or sets[0].size == sets[1].size == count
            if comb(orb.pw.size + s, s + 1) <= 5000:
                e, pw = orb.p_mod, orb.pw.tolist()
                sums = {sum(c) % e for c in combinations_with_replacement(pw, s + 1)}
                mins = {min(x * w % e for w in pw) for x in sums}
                assert mins == {min(x * w % e for w in pw) for x in level.tolist()}, s + 1
        return level, sets

    def spy_grid(base, orb):
        grid_rows.append(base.size)
        return grid_keys(base, orb)

    monkeypatch.setattr(engine, "_multiset_level", spy_step)
    monkeypatch.setattr(engine, "_grid_keys", spy_grid)
    return served, grid_rows


@pytest.mark.parametrize("p, k, n", MULTISET_SHAPES)
def test_multiset_levels_equal_the_grid_levels(monkeypatch, p, k, n):
    served, _ = _spy_levels(monkeypatch, check=True)
    q = element_of_order(p, k, n)
    r = smallest_prime_divisor(n)
    mv = engine._m_orbit(p**k, p, q, n, False)[0]
    assert mv <= r
    assert [s for s, _ in served] == list(range(2, len(served) + 2)) and served
    for s, count in served:  # C(n + s - 1, s) / n canonical s-multisets
        assert count * n == comb(n + s - 1, s) and s < r


def test_multiset_step_and_grid_each_build_their_levels(monkeypatch):
    served, grid_rows = _spy_levels(monkeypatch, check=False)
    q19 = element_of_order(571, 4, 19)
    assert m_prime_power(q19, 571, 4) == (19, None)
    assert [s for s, _ in served] == list(range(2, 10)) and not grid_rows
    served.clear()
    # n = 119 does not fit an int64 occupancy mask: the grid builds every level
    q119 = element_of_order(239, 4, 119)
    assert m_prime_power(q119, 239, 4) == (7, None)
    assert not served and grid_rows


def test_multiset_step_refuses_a_level_of_the_wrong_count(monkeypatch):
    # a wrong (s + 1)^-1 makes non-canonical multisets: the count check fails
    real_pow = pow

    def wrong_inverse(base, exp, mod=None):
        if exp == -1:
            return (real_pow(base, exp, mod) + 1) % mod
        return real_pow(base, exp, mod)

    monkeypatch.setattr(engine, "pow", wrong_inverse, raising=False)
    q = element_of_order(571, 4, 19)
    with pytest.raises(MsumError, match="canonical multisets"):
        engine._m_orbit(571**4, 571, q, 19, False)


@pytest.mark.parametrize("p", [571, 761])
def test_orbit_search_keeps_the_traced_peak_at_p_4(p):
    # level 9 holds 246,675 keys. The grid build of the levels peaked at
    # 15.7 MiB on these searches, and the negation of level 9, keyed in one
    # piece and met by np.intersect1d, at 14.97 MiB; keyed in slices and met
    # by lookup, the peak is the multiset build of level 9, 7.45 MiB
    q = element_of_order(p, 4, 19)
    tracemalloc.start()
    try:
        assert engine._m_orbit(p**4, p, q, 19, False) == (19, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


@pytest.mark.parametrize("p, k, n", MULTISET_SHAPES)
def test_neg_keys_equal_the_keys_of_the_negated_level(monkeypatch, p, k, n):
    # every level a search meets, keyed by orbit minima and by the key table
    levels, meet = {}, engine._meet

    def spy_meet(keys, negs):
        levels[keys.size] = keys
        return meet(keys, negs)

    monkeypatch.setattr(engine, "_meet", spy_meet)
    q = element_of_order(p, k, n)
    engine._m_orbit(p**k, p, q, n, False)
    orb = engine._Orbits(p**k, p, q, engine._power_table(q, p**k, n))
    for kind in (orb, orb._replace(mult=engine._key_table(orb))):
        for level in levels.values():
            level = engine._sorted_unique(engine._orbit_key(level, kind))
            got = engine._neg_keys(level, kind)
            want = engine._sorted_unique(engine._orbit_key(p**k - level, kind))
            assert np.array_equal(got, want) and np.all(got[1:] > got[:-1]), level.size
    if (p, k) == (571, 4):  # level 9 crosses the slice boundary
        assert max(levels) > engine._MEET_SLICE


@pytest.mark.parametrize("size", [0, 1, 2**15 - 1, 2**15, 2**15 + 1])
def test_meet_equals_intersect1d(size):
    rng = np.random.default_rng(size)
    keys = np.sort(rng.choice(4 * size + 8, size=size + 5, replace=False))
    cases = [np.sort(rng.choice(4 * size + 8, size=size, replace=False)),  # some keys common
             keys[:size],  # every key common
             np.setdiff1d(np.arange(4 * size + 8), keys)[:size]]  # no key common
    for negs in cases:
        assert negs.size == size
        got = engine._meet(keys, negs)
        want = np.intersect1d(keys, negs, assume_unique=True)
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert engine._meet(keys, cases[1]).size == size and not engine._meet(keys, cases[2]).size


@pytest.mark.parametrize("p, k, n", MULTISET_SHAPES + [(239, 4, 119), (911, 2, 91),
                                                       (_prime_1_mod_2n(19, 30), 1, 19)])
def test_orbit_search_keys_once(monkeypatch, p, k, n):
    # the key is chosen at entry, from the grid of the deepest level's base
    # against p, and every level of the search is keyed the one way
    tables, seen = [], []
    key_table, orbit_key = engine._key_table, engine._orbit_key

    def spy_table(orb):
        assert not seen, "key table built after a level was keyed"
        tables.append(key_table(orb))
        return tables[-1]

    def spy_key(x, orb):
        seen.append(orb.mult)
        return orbit_key(x, orb)

    monkeypatch.setattr(engine, "_key_table", spy_table)
    monkeypatch.setattr(engine, "_orbit_key", spy_key)
    q = element_of_order(p, k, n)
    r = smallest_prime_divisor(n)
    assert engine._m_orbit(p**k, p, q, n, False)[0] <= r
    assert len(tables) == (k >= 2 and comb(n + r // 2 - 2, r // 2 - 1) > p)
    assert seen and all(mult is (tables[0] if tables else None) for mult in seen)
