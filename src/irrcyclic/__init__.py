"""Exact weight distributions of irreducible cyclic codes over finite fields.

The package computes the Hamming-weight distribution of the trace code
attached to (p, s, m, N) with closed forms where the parameters allow them
and with an exact enumeration oracle otherwise, entirely in integer
arithmetic.
"""

from . import errors
from .closed_forms import (
    IndexTwoParams,
    PeriodPolynomial,
    QuadraticValue,
    SemiprimitivePeriods,
    index2_params,
    index2_periods,
    period_poly_order3,
    period_poly_order4,
    periods_order2,
    quadratic_gauss_sum,
    semiprimitive_gauss_sums,
    semiprimitive_periods,
)
from .cyclotomy import (
    CyclotomicTable,
    GaussianPeriodSet,
    RootOfUnitySum,
    cyclotomic_class,
    cyclotomic_numbers,
    gauss_sum_numeric,
    gaussian_periods_exact,
    quadratic_char_sum,
)
from .fields import FieldElement, FieldTower, build_tower
from .numtheory import (
    DiophantineRep,
    class_number,
    legendre,
    mult_order,
    semiprimitive_j,
    solve_alb,
    solve_c27d,
    solve_u4v,
)
from .oracle import Codeword, brute_weight_distribution, codeword, count_Z
from .weights import (
    CodeSpec,
    PeriodCheck,
    WeightDistribution,
    bounds,
    check_period_properties,
    code_params,
    divisibility,
    index2_weight,
    is_constant_weight,
    prime_power_distribution,
    weight_distribution,
    weight_from_period,
)

__version__ = "0.1.0"

__all__ = [
    "Codeword",
    "CodeSpec",
    "CyclotomicTable",
    "DiophantineRep",
    "FieldElement",
    "FieldTower",
    "GaussianPeriodSet",
    "IndexTwoParams",
    "PeriodCheck",
    "PeriodPolynomial",
    "QuadraticValue",
    "RootOfUnitySum",
    "SemiprimitivePeriods",
    "WeightDistribution",
    "bounds",
    "brute_weight_distribution",
    "build_tower",
    "check_period_properties",
    "class_number",
    "code_params",
    "codeword",
    "count_Z",
    "cyclotomic_class",
    "cyclotomic_numbers",
    "divisibility",
    "errors",
    "gauss_sum_numeric",
    "gaussian_periods_exact",
    "index2_params",
    "index2_periods",
    "index2_weight",
    "is_constant_weight",
    "legendre",
    "mult_order",
    "period_poly_order3",
    "period_poly_order4",
    "periods_order2",
    "prime_power_distribution",
    "quadratic_char_sum",
    "quadratic_gauss_sum",
    "semiprimitive_gauss_sums",
    "semiprimitive_j",
    "semiprimitive_periods",
    "solve_alb",
    "solve_c27d",
    "solve_u4v",
    "weight_distribution",
    "weight_from_period",
]
