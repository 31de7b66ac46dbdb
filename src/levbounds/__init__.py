"""Mollified-moment bound constants for zero proportions of the Dirichlet
L-function family: exact polynomial algebra, both constants as 1 plus a
Gauss-Legendre sum of squares over cached node rows, the bound combiners,
an oracle that recomputes them by Cauchy integrals of the moment kernel's
definition, and an exact search over the constrained polynomial shapes."""

from .optimizer import (EvaluationFailureError, IllPosedSolveError, SearchResult, SearchSpec,
                        optimize)
from .oracle import (CheckResult, CrosscheckReport, crosscheck_report, fd_c1_value, fd_c_value,
                     quad_integrate01)
from .polyalg import (ConstraintViolationError, MollifierShape, MomentTable, Poly,
                      TwistShape, expand_mollifier, moments, poly_derivative, poly_eval)
from .proportions import (BoundReport, ConstantBelowOneError, NonFiniteError,
                          SectionFiveParams, SectionFourParams, bounds_table, c1_core,
                          c1_value, c_core, c_value,
                          full_report, grh_bounds, kappa_bound, nu_bound,
                          unconditional_bounds)
from .reference import (REFERENCE_CONSTANTS, REMARK_DELTA1_KAPPA,
                        section_five_reference, section_four_reference)

__version__ = "0.1.0"

__all__ = [
    "MomentTable", "moments",
    "EvaluationFailureError", "IllPosedSolveError", "SearchResult", "SearchSpec", "optimize",
    "CheckResult", "CrosscheckReport", "crosscheck_report", "fd_c1_value", "fd_c_value",
    "quad_integrate01",
    "ConstraintViolationError", "MollifierShape", "Poly", "TwistShape", "expand_mollifier",
    "poly_derivative", "poly_eval",
    "BoundReport", "ConstantBelowOneError", "NonFiniteError", "SectionFiveParams",
    "SectionFourParams", "bounds_table", "c1_core", "c1_value", "c_core", "c_value",
    "full_report", "grh_bounds", "kappa_bound", "nu_bound", "unconditional_bounds",
    "REFERENCE_CONSTANTS", "REMARK_DELTA1_KAPPA",
    "section_five_reference", "section_four_reference",
]
