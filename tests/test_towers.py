import pytest

from msum import engine
from msum.campaign import EXAMPLE16
from msum.engine import m_value
from msum.errors import DomainError, NotFoundWithinCap
from msum.modular import element_of_order, mul_order, smallest_prime_divisor
from msum.towers import (
    check_prop9,
    fixed_base_tower,
    ord_factorization,
    prop10_search,
    prop14_table,
    prop15_table,
    tower_rows,
    tower_sequence,
)


def test_ord_factorization():
    assert ord_factorization(9, 11, 3) == (1, 5)  # ord_{11^3}(9) = 55
    assert ord_factorization(9, 11, 1) == (0, 5)
    assert ord_factorization(1, 11, 4) == (0, 1)
    with pytest.raises(DomainError):
        ord_factorization(22, 11, 2)


def test_check_prop9():
    assert check_prop9(9, 11, 3)
    assert check_prop9(9, 11, 4)
    with pytest.raises(DomainError):
        check_prop9(9, 11, 2)  # ord mod 121 is 5, prime to 11
    with pytest.raises(DomainError):
        check_prop9(9, 11, 1)


def test_fixed_base_tower_9_11():
    tower = fixed_base_tower(9, 11, 4)
    assert tower.m_sequence == (3, 5, 5, 5)
    assert tower.w == 2
    assert [(en.ord_i, en.ord_d) for en in tower.entries] == [
        (0, 5), (0, 5), (1, 5), (2, 5)]
    assert all(en.source == "bitmask" for en in tower.entries)


def test_fixed_base_tower_tags_the_orbit_choice():
    # m alone of order 17 at 953^2: the engine's cost rule picks the orbit
    # engine inside the dense range, and the tag says so; at 953 the
    # bitmask is cheaper
    tower = fixed_base_tower(element_of_order(953, 2, 17), 953, 2)
    assert [(en.ord, en.source) for en in tower.entries] == [(17, "bitmask"), (17, "orbit")]


def test_fixed_base_tower_tags_the_coset_choice():
    # m alone of order 11 at a prime near 2^20: the cost rule picks the
    # coset route, and the tag says so
    p = 1048609
    assert (p - 1) % 11 == 0
    tower = fixed_base_tower(element_of_order(p, 1, 11), p, 1)
    assert [(en.ord, en.source) for en in tower.entries] == [(11, "coset")]


def test_fixed_base_tower_2_23():
    tower = fixed_base_tower(2, 23, 2)
    assert tower.m_sequence[0] == 3
    assert tower.w == 1
    assert tower.entries[1].ord == 11 * 23
    assert tower.m_sequence[1] == 3  # stable from w = 1 on


def test_fixed_base_tower_congruent_one():
    tower = fixed_base_tower(12, 11, 3)
    assert tower.m_sequence == (11, 11, 11)
    assert m_value(12, 121) == 11
    tower = fixed_base_tower(1, 7, 2)
    assert tower.m_sequence == (7, 49)
    assert tower.w is None


def test_fixed_base_monotone_and_stable():
    for q, p in [(2, 3), (5, 7), (2, 11), (3, 5), (7, 3)]:
        tower = fixed_base_tower(q, p, 5)
        seq = tower.m_sequence
        assert all(a <= b for a, b in zip(seq, seq[1:])), (q, p)
        if tower.w is not None and tower.w < 5:
            tail = seq[tower.w - 1:]
            assert len(set(tail)) == 1, (q, p)


def test_fixed_base_stability_fill_past_dense_range():
    # 2053^2 is beyond the dense range and the order picks up a factor of p,
    # so levels k >= 2 come from the proven stability, tagged as such; level
    # 1 has order 2052, and 2^1026 = -1 (mod 2053): m = 2 with no search
    tower = fixed_base_tower(2, 2053, 3)
    assert tower.w == 1
    assert tower.entries[0].source == "m_two"
    assert tower.entries[1].source == tower.entries[2].source == "stability"
    assert tower.m_sequence == (tower.m_sequence[0],) * 3


def test_fixed_base_tags_name_the_route_that_ran(monkeypatch):
    # every computed level is tagged with the one route engine._route ran
    ran = []

    def spy(fn, route):
        def wrapped(*args, **kwargs):
            ran.append(route)
            return fn(*args, **kwargs)
        return wrapped

    def spy_m_two(q, e, n):
        pair = m_two(q, e, n)
        if pair:
            ran.append("m_two")
        return pair

    m_two = engine._m_two
    for name, route in [("_pair", "pair"), ("_bfs_dense", "bitmask"),
                        ("_bfs_label", "label"), ("_m_orbit", "orbit"), ("_m_coset", "coset")]:
        monkeypatch.setattr(engine, name, spy(getattr(engine, name), route))
    monkeypatch.setattr(engine, "_m_two", spy_m_two)
    tags = set()
    for q, p, k_max in [(2, 3, 5), (5, 7, 5), (9, 11, 4),
                        (element_of_order(1048609, 1, 11), 1048609, 1), (4, 4099, 1),
                        (2, 2053, 3), (2, 7, 5), (element_of_order(953, 2, 17), 953, 2)]:
        ran.clear()
        entries = fixed_base_tower(q, p, k_max).entries
        computed = [en.source for en in entries if en.source != "stability"]
        assert computed == ran, (q, p)
        tags.update(en.source for en in entries)
    assert tags == {"pair", "m_two", "bitmask", "label", "orbit", "coset", "stability"}


def test_tower_sequence_examples():
    assert tower_sequence(23, 11, 5).m_sequence == (3, 5, 9, 9, 11)
    assert tower_sequence(53, 13, 4).m_sequence == (3, 7, 12, 13)
    report = tower_sequence(23, 11, 5)
    assert report.K_hit == 5 and report.limit == 11
    assert report.decreases == ()
    for lv in report.levels:
        assert mul_order(lv.generator, lv.modulus) == 11
        assert lv.w >= lv.k


def test_tower_sequence_domain():
    with pytest.raises(DomainError):
        tower_sequence(23, 7, 3)  # 7 does not divide 22
    with pytest.raises(DomainError):
        tower_sequence(23, 1, 3)
    with pytest.raises(DomainError):
        tower_sequence(9, 2, 3)  # 9 is not prime


def test_prop10_search():
    assert prop10_search(11, 5, 3)[0] == 2
    assert prop10_search(61, 5, 3)[0] == 2
    k, gen = prop10_search(23, 11, 6)
    assert k == 5 and mul_order(gen, 23**5) == 11
    with pytest.raises(NotFoundWithinCap, match="k_cap=1"):
        prop10_search(11, 5, 1)
    with pytest.raises(NotFoundWithinCap, match="k_cap=1"):
        tower_rows(11, 5, 1)  # the same check and message as prop10_search


@pytest.mark.parametrize("p, n", sorted(pn for pn in EXAMPLE16 if pn[1] <= 17))
def test_prop10_search_reaches_example16_levels(p, n):
    # no modulus cap: (239, 17) reaches K = 4 at 239^4, about 3.3 * 10^9
    seq = EXAMPLE16[p, n]
    k, gen = prop10_search(p, n, len(seq))
    assert k == len(seq)
    assert mul_order(gen, p**k) == n


def test_prop14_table_small():
    rows = prop14_table(200)
    got = {(p, k): mv for p, k, mv in rows}
    assert got[(11, 1)] == 3 and got[(11, 2)] == 5
    assert got[(61, 1)] == 4 and got[(61, 2)] == 5
    for (p, k), mv in got.items():
        if (p, k) not in {(11, 1), (61, 1)}:
            assert mv == 5, (p, k)


def test_prop15_table_small():
    rows = prop15_table(250)
    got = {(p, k): mv for p, k, mv in rows}
    assert got[(43, 1)] == 3
    assert got[(29, 1)] == 4 and got[(71, 1)] == 4
    assert got[(113, 1)] == 5 and got[(197, 1)] == 5
    assert got[(211, 1)] == 6
    assert got[(127, 1)] == 7 and got[(239, 1)] == 7
    # exceptional primes stabilize at 7 one level up
    assert got[(43, 2)] == 7 and got[(29, 2)] == 7


@pytest.mark.parametrize("q,p,j,k", [
    (2, 3, 2, 3), (2, 3, 4, 4), (2, 5, 1, 2), (3, 5, 2, 3), (3, 7, 2, 2),
    (5, 11, 1, 2), (2, 13, 1, 2), (7, 3, 3, 3), (10, 3, 2, 2),
])
def test_submultiplicative_in_k(q, p, j, k):
    lhs = m_value(q, p ** (j + k))
    assert lhs <= m_value(q, p**j) * m_value(q, p**k)


def test_m_two_iff_even_order():
    for p in (3, 5, 7, 11, 13):
        for k in (1, 2):
            e = p**k
            for q in range(2, 40):
                if q % p == 0:
                    continue
                assert (m_value(q, e) == 2) == (mul_order(q, e) % 2 == 0), (q, e)


def test_m_three_when_smallest_prime_of_order_is_three():
    for p in (7, 13, 19, 31, 37, 43):
        for k in (1, 2):
            e = p**k
            for q in range(2, 60):
                if q % p == 0:
                    continue
                n = mul_order(q, e)
                if n % 2 == 0 or n % 3 != 0:
                    continue
                assert m_value(q, e) == 3, (q, e, n)


def test_tower_limit_bounded_by_smallest_prime_divisor():
    for p, n in [(11, 5), (23, 11), (29, 7), (71, 35), (131, 65)]:
        report = tower_sequence(p, n, 2)
        r = smallest_prime_divisor(n)
        assert report.limit <= r
        assert all(lv.m <= r for lv in report.levels)


def test_m_depends_only_on_order():
    # any two bases of equal order mod p^k give equal m
    for p, k, n in [(31, 1, 5), (11, 2, 5), (29, 1, 7), (23, 2, 11)]:
        e = p**k
        base = element_of_order(p, k, n)
        values = {m_value(pow(base, i, e), e)
                  for i in range(1, n) if n % i != 0 or i == 1}
        others = [q for q in range(2, e) if q % p and mul_order(q, e) == n]
        values.update(m_value(q, e) for q in others[:8])
        assert len(values) == 1, (p, k, n)
