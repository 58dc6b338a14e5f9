"""Exact weight distributions of irreducible cyclic codes over finite fields.

The package computes the Hamming-weight distribution of the trace code
attached to (p, s, m, N) with closed forms where the parameters allow them
and with an exact enumeration oracle otherwise, entirely in integer
arithmetic.
"""

import sys

from . import errors

# submodule -> the names it exports here; each loads on first access
# (PEP 562), so importing the package, or a closed-form path, never loads numpy
_EXPORTS = {
    "closed_forms": (
        "IndexTwoParams",
        "PeriodPolynomial",
        "QuadraticValue",
        "SemiprimitivePeriods",
        "index2_params",
        "index2_periods",
        "period_poly_order3",
        "period_poly_order4",
        "periods_order2",
        "quadratic_gauss_sum",
        "semiprimitive_gauss_sums",
        "semiprimitive_periods",
    ),
    "cyclotomy": (
        "CyclotomicTable",
        "GaussianPeriodSet",
        "RootOfUnitySum",
        "cyclotomic_class",
        "cyclotomic_numbers",
        "gauss_sum_numeric",
        "gaussian_periods_exact",
        "quadratic_char_sum",
    ),
    "fields": ("FieldElement", "FieldTower", "build_tower"),
    "numtheory": (
        "class_number",
        "legendre",
        "mult_order",
        "semiprimitive_j",
        "solve_alb",
        "solve_c27d",
        "solve_u4v",
    ),
    "oracle": ("Codeword", "brute_weight_distribution", "codeword", "count_Z"),
    "weights": (
        "CodeSpec",
        "PeriodCheck",
        "WeightDistribution",
        "bounds",
        "check_period_properties",
        "code_params",
        "divisibility",
        "index2_weight",
        "is_constant_weight",
        "prime_power_distribution",
        "weight_distribution",
        "weight_from_period",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = ["errors", *sorted(_SOURCE)]


def _submodule(name: str):
    # through the import statement's own machinery, which `-X importtime`
    # reports, where importlib.import_module would charge it to the caller
    full = f"{__name__}.{name}"
    __import__(full)
    return sys.modules[full]


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(_submodule(_SOURCE[name]), name)
    elif name in _EXPORTS:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
