import hashlib
import json
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from msum import cyclo
from msum.cyclo import (
    ExceptionSet,
    IntPolynomial,
    _raw_tuples,
    bezout_denominator,
    candidate_scan,
    corollary13_exceptions,
    cyclotomic,
    prop11_candidates,
    threshold,
)
from msum.engine import m_value
from msum.errors import DegenerateInput, DomainError, ModulusTooLarge
from msum.modular import euler_phi, rad, smallest_prime_divisor


def poly(*coeffs):
    return IntPolynomial.make(coeffs)


def mul(f, g):
    """The product f g; only the tests multiply polynomials."""
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)  # empty, so zero, when f or g is zero
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return IntPolynomial.make(out)


def evaluate(f, x):
    """f(x) by Horner's rule; only the tests evaluate polynomials."""
    out = 0
    for c in reversed(f.coeffs):
        out = out * x + c
    return out


def resultant(f, g):
    """Integer resultant via fraction-free (Bareiss) elimination of the
    Sylvester matrix: the reference for bezout_denominator, which eliminates a
    different matrix (multiplication by g mod Phi_n)."""
    if f.is_zero or g.is_zero:
        return 0
    dn, dm = f.degree, g.degree
    if dn == 0:
        return f.coeffs[0] ** dm
    if dm == 0:
        return g.coeffs[0] ** dn
    size = dn + dm
    rows = []
    fr = list(reversed(f.coeffs))
    gr = list(reversed(g.coeffs))
    for i in range(dm):
        rows.append([0] * i + fr + [0] * (size - i - len(fr)))
    for i in range(dn):
        rows.append([0] * i + gr + [0] * (size - i - len(gr)))
    sign = 1
    prev = 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            for swap in range(k + 1, size):
                if rows[swap][k] != 0:
                    rows[k], rows[swap] = rows[swap], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[size - 1][size - 1]


def canonical_rotation(t, n, phi):
    """The least of t and its rotations with an exponent moved to 0, sorted, and
    every exponent below phi; the sift's count vectors are checked against it."""
    best = t
    for shift in set(t):
        if shift == 0:
            continue
        rot = tuple(sorted((x - shift) % n for x in t))
        if rot[-1] < phi and rot < best:
            best = rot
    return best


def tuple_poly(t):
    """g = the sum of X^i over the exponents i of t."""
    out = [0] * (max(t) + 1)
    for i in t:
        out[i] += 1
    return IntPolynomial.make(out)


def canonical_polys(n):
    """(t, g) for every rotation-canonical exponent tuple t of the sift at n."""
    phi = euler_phi(n)
    for t in _raw_tuples(n):
        if canonical_rotation(t, n, phi) == t:
            yield t, tuple_poly(t)


def test_cyclotomic_small():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(5).coeffs == (1, 1, 1, 1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_reconstruction():
    for n in range(1, 121):
        prod = poly(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = mul(prod, cyclotomic(d))
        want = [-1] + [0] * (n - 1) + [1]
        assert prod.coeffs == tuple(want), n
        assert cyclotomic(n).degree == euler_phi(n)


def test_int_polynomial_ops():
    f = mul(poly(1, 2), poly(-1, 1))  # (1+2X)(X-1) = -1 - X + 2X^2
    assert f.coeffs == (-1, -1, 2)
    quo, rem = f.divmod_monic(poly(-1, 1))
    assert quo.coeffs == (1, 2) and rem.is_zero
    assert evaluate(f, 3) == 14
    with pytest.raises(DomainError):
        f.divmod_monic(poly(1, 2))


def test_threshold_values():
    assert threshold(5) == 5
    assert threshold(7) == 7
    assert threshold(35) == Fraction(35, 11)
    assert threshold(2) == 2
    with pytest.raises(DomainError):
        threshold(1)


def test_threshold_properties_to_2000():
    for n in range(2, 2001):
        thr = threshold(n)
        assert thr == threshold(rad(n))
        r = smallest_prime_divisor(n)
        assert thr <= r
        if rad(n) == smallest_prime_divisor(n):  # prime power
            assert thr > r - 1


def test_bezout_denominator_basics():
    assert bezout_denominator(poly(1), 5) == 1
    assert bezout_denominator(poly(1, 1), 5) == 1  # Phi_5(-1) = 1
    # inputs of degree >= phi(n) are reduced mod Phi_n first
    assert bezout_denominator(poly(3, 0, 0, 0, 0, 0, 0, 1), 5) == 61
    assert bezout_denominator(poly(2, 5, 0, 0, 0, 0, 0, 0, 0, 1), 5) == 401
    for g in (cyclotomic(5), mul(cyclotomic(5), poly(-1, 1)), IntPolynomial(())):
        with pytest.raises(DegenerateInput):
            bezout_denominator(g, 5)


def test_bezout_identity_and_common_divisor_property():
    # Prop. 11: d lies in the ideal (g, Phi_n), so gcd(g(q), Phi_n(q)) divides
    # d at every integer q
    for n in (5, 7):
        phi_n = cyclotomic(n)
        for t, g in canonical_polys(n):
            d = bezout_denominator(g, n)
            for q in range(2, 200):
                assert d % gcd(evaluate(g, q), evaluate(phi_n, q)) == 0, (n, t, q)


def test_bezout_divides_resultant():
    for n in (5, 7):
        phi_n = cyclotomic(n)
        for t, g in canonical_polys(n):
            d = bezout_denominator(g, n)
            res = resultant(g, phi_n)
            assert res != 0
            assert abs(res) % d == 0, (n, t)


def test_resultant_against_root_evaluation():
    # res(X - a, g) = +/- g(a) up to the leading-coefficient convention
    g = poly(2, 0, 1)  # X^2 + 2
    for a in range(-3, 4):
        assert abs(resultant(poly(-a, 1), g)) == abs(evaluate(g, a))
    assert resultant(poly(3), poly(1, 1, 1)) == 9  # constant^deg
    assert resultant(poly(1, 1), poly(1, 1)) == 0  # common root


def test_prop11_candidates_trivial_cases():
    # threshold 2 or 3/2 forces m = 1, whose only tuple is g = 1 with d = 1
    assert prop11_candidates(2) == {1}
    assert prop11_candidates(6) == {1}
    assert prop11_candidates(4) == {1}
    c5 = prop11_candidates(5)
    assert {11, 61} <= c5


def test_candidate_scan_reports_everything():
    scan = candidate_scan(5)
    assert scan.tuples_examined == 25  # 35 admissible tuples, 25 rotation classes
    assert scan.unresolved == ()
    assert all(d >= 1 for d in scan.d_values)
    assert set(scan.d_values) == {1, 2, 3, 4, 11, 61}


def test_candidate_scan_reports_strong_pseudoprime_unresolved(monkeypatch):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the first
    # 12 prime bases; the scan must report it, never take it for a prime
    psi_12 = 318665857834031151167461
    monkeypatch.setattr(cyclo, "bezout_denominator", lambda g, n: psi_12)
    scan = candidate_scan(5)
    assert scan.factored == ((psi_12, ()),)
    assert scan.unresolved == ((psi_12, psi_12),)
    assert not corollary13_exceptions(5).complete


def test_candidate_scan_pins_n7():
    scan = candidate_scan(7)
    assert scan.tuples_examined == 245
    assert scan.d_values == (
        1, 2, 3, 4, 5, 6, 8, 13, 29, 41, 43, 58, 71, 86, 113, 142, 197, 211,
        379, 421, 463, 547, 757, 2689, 3053, 3277, 13021,
    )


@pytest.mark.parametrize("n", [5, 7, 9, 15, 21])
def test_affine_sift_keeps_every_rotation_class_denominator(n):
    # one solve per affine class gives the d set of one solve per rotation class
    want = {bezout_denominator(g, n) for _, g in canonical_polys(n)}
    scan = candidate_scan(n)
    assert set(scan.d_values) == want
    assert scan.tuples_examined == sum(1 for _ in canonical_polys(n))


@pytest.mark.parametrize("n,solves", [(5, 12), (7, 57)])
def test_candidate_scan_solves_one_tuple_per_affine_class(monkeypatch, n, solves):
    # 25 and 245 rotation classes at n = 5 and 7
    seen = []
    solve = cyclo.bezout_denominator

    def spy(g, order):
        seen.append(g)
        return solve(g, order)

    monkeypatch.setattr(cyclo, "bezout_denominator", spy)
    candidate_scan(n)
    assert len(seen) == solves == len(set(seen))


def test_candidate_scan_pins_n11():
    scan = candidate_scan(11)
    assert scan.tuples_examined == 32065
    assert len(scan.d_values) == 1649
    digest = hashlib.sha256(json.dumps(list(scan.d_values)).encode()).hexdigest()
    assert digest == "6175cf72c95dbe73d54b85a436866109365d9ea9ea3abd0864b8bc6b9a755ef4"


@pytest.mark.parametrize("n", [5, 7])
def test_prop11_candidates_match_corollary13_pool(n):
    assert prop11_candidates(n) == corollary13_exceptions(n).candidate_pool


def test_corollary13_exceptions_n5():
    exc = corollary13_exceptions(5)
    assert exc.entries == ((11, 1, 3), (61, 1, 4))
    assert exc.threshold == 5
    assert exc.complete
    assert {11, 61} <= exc.candidate_pool


def test_corollary13_exceptions_n4_empty():
    exc = corollary13_exceptions(4)
    assert exc.entries == ()
    assert exc.complete


def test_corollary13_leaves_out_of_range_powers_unresolved(monkeypatch):
    def out_of_range(q, p, k, want_witness=False):
        raise ModulusTooLarge(f"modulus {p}^{k} beyond every route")

    monkeypatch.setattr(cyclo, "m_prime_power", out_of_range)
    exc = corollary13_exceptions(5)
    assert exc.entries == ()
    # every (p, k) no route takes is left open, so the set is not complete
    assert exc.unresolved == ((11, 11), (61, 61))
    assert exc.complete is False


def _phi_n_roots_mod_e(n: int, e_max: int):
    """(q, e) pairs with e | Phi_n(q), gcd(q, e) = 1, e <= e_max, via a
    vectorized Horner scan independent of the candidate machinery."""
    coeffs = cyclotomic(n).coeffs
    out = []
    for e in range(2, e_max + 1):
        qs = np.arange(e, dtype=np.int64)
        acc = np.zeros(e, dtype=np.int64)
        for c in reversed(coeffs):
            acc = (acc * qs + c) % e
        hits = np.nonzero(acc == 0)[0]
        for q in hits:
            q = int(q)
            if q >= 1 and gcd(q, e) == 1:
                out.append((q, e))
    return out


@pytest.mark.parametrize("n,e_max", [(5, 3000), (7, 3000)])
def test_prop11_soundness_sweep(n, e_max):
    candidates = prop11_candidates(n)
    thr = threshold(n)
    checked = 0
    for q, e in _phi_n_roots_mod_e(n, e_max):
        if m_value(q, e) < thr:
            checked += 1
            assert e in candidates, (q, e)
    assert checked > 0


@pytest.mark.parametrize("n,e_max", [(11, 3000),
                                     pytest.param(13, 3000, marks=pytest.mark.slow)])
def test_prop11_soundness_sweep_large_n(n, e_max):
    candidates = prop11_candidates(n)
    thr = threshold(n)
    for q, e in _phi_n_roots_mod_e(n, e_max):
        if m_value(q, e) < thr:
            assert e in candidates, (q, e)


def test_exception_set_type():
    exc = corollary13_exceptions(5)
    assert isinstance(exc, ExceptionSet)
    assert isinstance(exc.threshold, Fraction)
