"""Exact Groebner bases and Newton interpolation bases for finite point
sets in two variables, over prime fields or the rationals."""

from .bm import (BMResult, NotLowerSetError, UnsupportedOrderError, bm_run,
                 border, gpbm_run, spbm_run)
from .cartesian import is_cartesian, max_cartesian_subset
from .fields import (BadFieldSpecError, DivisionByZeroError, Field,
                     FieldError, NotPrimeError, PrimeField, RationalField,
                     ZeroDenominatorError, make_field)
from .newton import (NewtonBasis, evaluation_matrix, newton_basis_cols,
                     newton_basis_rows)
from .orders import (INLEX, LEX, ORDERS, TDINLEX, TermOrder, exp_divides,
                     order_by_name)
from .points import (DuplicatePointError, EmptySetError, LineCover, PointSet,
                     format_point_file, is_lower, line_cover, lower_set_of,
                     parse_point_file)
from .poly import (PolyMatrix, Polynomial, monomial_text, poly_json_terms,
                   poly_matrix_from_json, poly_text)
from .randgen import SplitMix64, gen_points
from .verify import (CapExceededError, VerifyReport, check_newton,
                     check_reduced_gb, check_vanishing, oracle_dense,
                     verify_parts, verify_result)

__version__ = "0.1.0"
