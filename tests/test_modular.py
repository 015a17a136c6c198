import random
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from msum.errors import DomainError, NotCoprime
from msum.modular import (
    divisors,
    element_of_order,
    euler_phi,
    factorize,
    find_primitive_root,
    gcd_table,
    instance,
    is_prime,
    mul_order,
    order_mod_prime_power,
    p_adic_w,
    prime_power,
    rad,
    smallest_prime_divisor,
    trial_factor,
    unit_subgroup,
)

PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981

coprime_pairs = st.integers(2, 400).flatmap(
    lambda e: st.tuples(
        st.sampled_from([q for q in range(1, e) if gcd(q, e) == 1]),
        st.just(e),
    )
)


def order_by_multiplication(q, e):
    x, n = q % e, 1
    while x != 1:
        x = x * q % e
        n += 1
    return n


def test_gcd_examples():
    assert gcd(0, 7) == 7
    assert gcd(8, 2) == 2
    assert gcd(21, 14) == 7


def test_mul_order_examples():
    assert mul_order(4, 7) == 3
    assert mul_order(1, 9) == 1
    assert mul_order(2, 23) == 11


def test_mul_order_rejects_noncoprime():
    with pytest.raises(NotCoprime):
        mul_order(6, 9)


@given(coprime_pairs)
def test_mul_order_matches_direct_multiplication(pair):
    q, e = pair
    assert mul_order(q, e) == order_by_multiplication(q, e)


@given(coprime_pairs)
def test_mul_order_divides_phi(pair):
    q, e = pair
    assert euler_phi(e) % mul_order(q, e) == 0


def test_unit_subgroup_examples():
    assert unit_subgroup(4, 7).elements == (1, 2, 4)
    assert unit_subgroup(1, 17).elements == (1,)
    assert unit_subgroup(3, 8).elements == (1, 3)


@given(coprime_pairs)
def test_unit_subgroup_closed_under_multiplication(pair):
    q, e = pair
    sub = unit_subgroup(q, e)
    els = set(sub.elements)
    assert len(els) == sub.order == mul_order(q, e)
    assert 1 in els
    assert all(x * y % e in els for x in els for y in els)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(5) == 4
    assert euler_phi(12) == 4


@given(st.integers(1, 300))
def test_euler_phi_counts_units(n):
    assert euler_phi(n) == sum(1 for q in range(1, n + 1) if gcd(q, n) == 1)


def test_rad_examples():
    assert rad(12) == 6
    assert rad(7) == 7
    assert rad(360) == 30
    assert rad(1) == 1


@given(st.integers(1, 10_000))
def test_rad_from_factorization(n):
    prod = 1
    for p, _ in factorize(n):
        prod *= p
    assert rad(n) == prod


def prime_flags(limit):
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for i in range(2, isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit, i)))
    return flags


def test_is_prime_matches_sieve():
    flags = prime_flags(10**5)
    assert all(is_prime(n) == bool(flags[n]) for n in range(10**5))


@pytest.mark.parametrize("n", [
    # OEIS A014233: least strong pseudoprimes to the first 1, ..., 12 prime bases
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, PSI_12,
    # Carmichael numbers
    561, 1105, 1729,
])
def test_pseudoprimes_are_composite(n):
    assert not is_prime(n)


def test_is_prime_refuses_beyond_its_exact_range():
    with pytest.raises(DomainError):
        is_prime(PSI_13)


@pytest.mark.parametrize("lo, hi", [
    (1, 10**5),
    (10**6 - 10**4, 10**6),  # the slow end: primes need ~500 trial divisions
    pytest.param(1, 10**6, marks=pytest.mark.slow),
])
def test_factorize_multiplies_back(lo, hi):
    flags = prime_flags(hi)
    for n in range(lo, hi):
        factors = factorize(n)
        assert prod(p**k for p, k in factors) == n
        assert all(flags[p] and k > 0 for p, k in factors)
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def test_factorize_primes_past_10_6():
    # both factors lie in (10^6, 2^20): trial division must reach them
    assert factorize(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]
    assert smallest_prime_divisor(1000003 * 1000033) == 1000003


def test_trial_factor_settles_cofactors():
    # 1048583 > 2^20: the square is left to the integer-root test
    assert trial_factor(1048583**2) == ([(1048583, 2)], 1)
    assert trial_factor(12 * 1048583) == ([(2, 2), (3, 1), (1048583, 1)], 1)
    assert trial_factor(PSI_12) == ([], PSI_12)
    assert trial_factor(3 * PSI_13) == ([(3, 1)], PSI_13)
    with pytest.raises(DomainError):
        factorize(PSI_12)


def test_prime_power_agrees_with_factorize_to_2_16():
    for e in range(1, 2**16 + 1):
        factors = factorize(e)
        assert prime_power(e) == (factors[0] if len(factors) == 1 else None), e


def test_prime_power_shapes():
    assert prime_power(1048571**2) == (1048571, 2)  # a prime just below 2^20, squared
    assert prime_power(3**25) == (3, 25)
    assert prime_power(1099511627689) == (1099511627689, 1)  # the largest prime below 2^40
    for k in range(1, 41):
        assert prime_power(2**k) == (2, k)
    assert prime_power(1048583**3) == (1048583, 3)  # past 2^60: the integer-root test
    for n in (2 * 7**5, 2 * 1048571**2, 15**2, 15**3, 6**7, 1048571 * 1048573, PSI_12):
        assert prime_power(n) is None, n
    for n in (-4, 0, 1):
        assert prime_power(n) is None


def test_smallest_prime_divisor():
    assert smallest_prime_divisor(35) == 5
    assert smallest_prime_divisor(2) == 2
    assert smallest_prime_divisor(91) == 7
    with pytest.raises(DomainError):
        smallest_prime_divisor(1)


def test_p_adic_w_examples():
    assert p_adic_w(9, 5, 11) == 2  # 9^5 - 1 = 2^3 * 11^2 * 61
    assert p_adic_w(2, 11, 23) == 1  # 2^11 - 1 = 23 * 89
    assert p_adic_w(4, 3, 7) == 1  # 4^3 - 1 = 63 = 7 * 9


@given(st.integers(2, 40), st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 6))
def test_p_adic_w_matches_full_factorization(q, p, n):
    if q % p == 0 or (q**n - 1) % p != 0:
        return
    full = q**n - 1
    w = 0
    while full % p == 0:
        full //= p
        w += 1
    assert p_adic_w(q, n, p) == w


def test_p_adic_w_domain_errors():
    with pytest.raises(DomainError):
        p_adic_w(11, 5, 11)  # p | q
    with pytest.raises(DomainError):
        p_adic_w(2, 3, 5)  # 5 does not divide 2^3 - 1
    with pytest.raises(DomainError):
        p_adic_w(1, 5, 11)  # unbounded


def test_find_primitive_root():
    assert find_primitive_root(7, 1) == 3
    assert find_primitive_root(23, 1) == 5
    assert find_primitive_root(11, 2) == 2
    assert mul_order(2, 121) == 110


@given(st.sampled_from([3, 5, 7, 11, 13, 19, 23, 29]), st.integers(1, 3))
def test_primitive_root_generates(p, k):
    g = find_primitive_root(p, k)
    assert mul_order(g, p**k) == euler_phi(p**k)


def test_element_of_order():
    q = element_of_order(11, 1, 5)
    assert mul_order(q, 11) == 5
    assert element_of_order(13, 2, 1) == 1
    q = element_of_order(23, 2, 11)
    assert mul_order(q, 529) == 11
    with pytest.raises(DomainError):
        element_of_order(11, 1, 7)  # 7 does not divide 10


def test_order_mod_prime_power_agrees_with_generic():
    for p, k in [(3, 4), (11, 2), (23, 2), (7, 3)]:
        for q in range(2, 30):
            if q % p:
                assert order_mod_prime_power(q, p, k) == mul_order(q, p**k)


def _orders_by_walk(e):
    """q -> ord_e(q) for every unit q mod e, with no factoring: walk the
    powers of each q not yet seen; q^j has order n / gcd(j, n) when q has
    order n."""
    order = {}
    for q in range(1, e):
        if q in order or gcd(q, e) != 1:
            continue
        powers, x = [1], q % e
        while x != 1:
            powers.append(x)
            x = x * q % e
        n = len(powers)
        for j, x in enumerate(powers):
            order.setdefault(x, n // gcd(j, n))
    return order


@pytest.mark.parametrize("lo, hi", [
    (2, 500),
    (1950, 2000),
    pytest.param(2, 2000, marks=pytest.mark.slow),  # 1.2 million pairs, 14 s
])
def test_mul_order_matches_brute_force(lo, hi):
    for e in range(lo, hi + 1):
        for q, n in _orders_by_walk(e).items():
            assert mul_order(q, e) == n, (q, e)


def test_mul_order_on_powers_of_two():
    # (Z/2^k)* has exponent 2^(k - 2) from k = 3 on, not phi(2^k) = 2^(k - 1)
    for k in range(1, 12):
        e = 1 << k
        for q, n in _orders_by_walk(e).items():
            assert mul_order(q, e) == n, (q, e)
        if k >= 3:
            assert mul_order(3, e) == e // 4


def test_mul_order_agrees_with_order_mod_prime_power_near_2_37():
    rng = random.Random(37)
    for k in (1, 2, 3):
        p = round(2 ** (37 / k))
        while not is_prime(p):
            p += 1
        e = p**k
        for _ in range(3):
            q = rng.randrange(2, e)
            if q % p:
                assert order_mod_prime_power(q, p, k) == mul_order(q, e), (q, p, k)


def test_instance_fields():
    inst = instance(4, 7)
    assert (inst.q, inst.e, inst.n, inst.e1) == (4, 7, 3, 1)
    inst = instance(5, 8)
    assert (inst.n, inst.e1) == (2, 4)
    inst = instance(1, 9)  # e1 = e by the gcd(e, 0) convention
    assert inst.e1 == 9
    with pytest.raises(NotCoprime):
        instance(6, 9)


def test_divisors_ascending():
    assert divisors([]) == [1]
    assert divisors([(2, 2), (3, 1), (5, 1)]) == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
    for n in range(1, 500):
        assert divisors(factorize(n)) == [d for d in range(1, n + 1) if n % d == 0]


def test_gcd_table_equals_np_gcd():
    # every modulus the per-modulus claims reach at full scale
    for e in range(1, 2050):
        x = np.arange(e, dtype=np.int64)
        g = gcd_table(e)
        assert g.dtype == np.int64 and np.array_equal(g, np.gcd(e, x)), e
