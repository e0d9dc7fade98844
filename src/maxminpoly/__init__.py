"""Exact arithmetic, factorization, census and series diagnostics for
polynomials over max-min digit semirings."""

__version__ = "0.1.0"

from .core import (
    DigitMap,
    MaxMinPoly,
    add,
    apply_digit_map,
    constant,
    degree,
    format_poly,
    from_set,
    identity_map,
    is_monomial,
    monomial,
    mul,
    natset,
    nnz,
    one,
    parse_poly,
    poly_from_json,
    poly_new,
    poly_to_json,
    rho,
    sumset,
    support_level,
    threshold_map,
    to_set,
    truncate,
    zero,
)
from .factor import (
    Classification,
    FactorWitness,
    PrimeStatus,
    all_factorizations,
    candidate_reason,
    classify_irreducible,
    classify_prime,
    divides,
    is_prime_candidate,
    prime_status,
    residual_divide,
)

__all__ = [name for name in dir() if not name.startswith("_")]
