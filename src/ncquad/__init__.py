"""Exact computer algebra for noncommutative quadric surfaces.

The package computes the 2^(n-1)-dimensional Clifford-type invariant of
a quadric quotient of an n-generator quadratic algebra, decides
smoothness through semisimplicity and, for n = 4, counts rulings, models the
Grothendieck lattice of a smooth quadric with its Euler and
intersection forms, and handles elliptic quadric pencils including
their four singular members.
"""

from .cliff import (HypersurfaceData, HypothesisViolation, clifford_algebra,
                    compare_invariants, even_clifford_oracle,
                    verify_matrix_factorization)
from .exactlin import (LaurentPoly, Matrix, RationalSeries, expand,
                       kernel_basis, pole_data, qq, rref)
from .families import (commutative_presentation, free_presentation,
                       sklyanin_gamma, sklyanin_presentation)
from .findim import AnalysisReport, FinDimAlgebra, analyze, radical
from .kzero import K0Class, K0Lattice, act_t, euler, fat_class, intersect, \
    lattice_init, projn_class, relation_suite
from .qalg import (GradedTable, QuadraticPresentation, build_table,
                   central_quadratic_space, hilbert, is_regular_central,
                   koszul_dual, koszul_identity_check, multiply)
from .skly import Curve, ECPoint, PencilLabel, SecantLine, pencil_discriminant

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "Curve", "ECPoint", "FinDimAlgebra", "GradedTable",
    "HypersurfaceData", "HypothesisViolation", "K0Class", "K0Lattice",
    "LaurentPoly", "Matrix", "PencilLabel", "QuadraticPresentation",
    "RationalSeries", "SecantLine", "act_t", "analyze", "build_table",
    "central_quadratic_space", "clifford_algebra", "commutative_presentation",
    "compare_invariants", "euler", "even_clifford_oracle", "expand",
    "fat_class", "free_presentation", "hilbert", "intersect",
    "is_regular_central", "kernel_basis", "koszul_dual",
    "koszul_identity_check", "lattice_init", "multiply", "pencil_discriminant",
    "pole_data", "projn_class", "qq", "radical", "relation_suite", "rref",
    "sklyanin_gamma", "sklyanin_presentation", "verify_matrix_factorization",
]
