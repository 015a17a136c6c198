"""Minimal vanishing sums of powers modulo e.

m(q, e) is the least number of powers of q (repetitions allowed) whose sum is
divisible by e. The library computes it exactly with verified witnesses,
classifies the pairs where it is large, walks prime-power towers, sifts the
cyclotomic exception sets, and ships a verification campaign for each of
those claims.
"""
from .classify import (
    Corollary8Case,
    StarParams,
    classify_large,
    star_params,
)
from .campaign import list_claims, run_claim
from .cyclo import (
    ExceptionSet,
    IntPolynomial,
    bezout_denominator,
    corollary13_exceptions,
    cyclotomic,
    prop11_candidates,
    threshold,
)
from .engine import (
    ceil_bound,
    is_m_two,
    m,
    m_table_for_modulus,
    m_value,
    two_power_m,
    verify_witness,
)
from .errors import (
    ClassificationOverlap,
    DegenerateInput,
    DomainError,
    ModulusTooLarge,
    MsumError,
    NotCoprime,
    NotFoundWithinCap,
    StoreError,
    UnknownClaim,
)
from .modular import (
    MResult,
    PowerSumInstance,
    element_of_order,
    euler_phi,
    instance,
    mul_order,
    p_adic_w,
    rad,
    smallest_prime_divisor,
)
from .report import VerificationReport
from .store import ResultStore
from .towers import (
    FixedBaseTower,
    TowerReport,
    check_prop9,
    fixed_base_tower,
    ord_factorization,
    prop10_search,
    prop14_table,
    prop15_table,
    tower_sequence,
)

__version__ = "0.1.0"
