"""Computer algebra for the 1-norm completed Grassmann algebra and its Schur analysis.

Supernumber and supermatrix arithmetic with positivity, truncated star-product
power series, state-space realizations, Toeplitz one-step extension,
Nevanlinna-Pick interpolation, the Schur algorithm, and Blaschke/Brune factors,
plus an independent brute-force oracle and a file-based CLI.
"""
from .algebra import (
    AlgebraContext,
    Classification,
    Supernumber,
    analytic_apply,
    basis_mul,
    classify,
    dagger,
    grade,
    index_from_generators,
    index_to_generators,
    invert,
    kth_root,
    linear_combine,
    merge_swap_count,
    mul,
)
from .matrix import (
    LDUFactors,
    PositivityReport,
    SuperMatrix,
    adjoint,
    is_supernonnegative,
    is_superpositive,
    ldu_factor,
    mat_invert,
    mat_mul,
    polarization_reconstruct,
    positive_factorize,
    quadratic_form,
)
from . import errors

__all__ = [
    "AlgebraContext",
    "Classification",
    "Supernumber",
    "SuperMatrix",
    "LDUFactors",
    "PositivityReport",
    "adjoint",
    "analytic_apply",
    "basis_mul",
    "classify",
    "dagger",
    "errors",
    "grade",
    "index_from_generators",
    "index_to_generators",
    "invert",
    "is_supernonnegative",
    "is_superpositive",
    "kth_root",
    "ldu_factor",
    "linear_combine",
    "mat_invert",
    "mat_mul",
    "merge_swap_count",
    "mul",
    "polarization_reconstruct",
    "positive_factorize",
    "quadratic_form",
]

__version__ = "0.1.0"
