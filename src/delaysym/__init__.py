"""Symmetry analysis of first order linear delay systems.

The package classifies the invariant systems of low dimensional point
symmetry algebras, marches them numerically by the method of steps,
reduces one dimensional subalgebras to invariant solutions, and checks
everything against plain residual evaluation.
"""

from .delay import (AffineDelay, ConstantDelay, GeneralDelay, Mesh,
                    MoebiusDelay, QScaleDelay, build_mesh, closed_form_point,
                    parse_delay_spec, scale_delay)
from .dods import (CatalogCase, CatalogEntry, CaseInfo, CASE_IDS, Dods,
                   GeneralRhs, InitialCondition, LinearRhs, catalog,
                   homogenized, initial_condition, list_cases, load_spec,
                   resolve_case, validate_beta)
from .errors import *  # noqa: F401,F403
from .expr import as_expr, differentiate, evaluate, fold, parse, to_text
from .reduction import (ConstraintSolution, InvariantFamily, Role, Status,
                        build_solution, families, solve_constraints, verify)
from .steps import (PiecewiseSolution, Scheme, Segment, SolverConfig,
                    from_exprs, residual_scan, sample_expr, solution_from_json,
                    solve)
from .symmetry import (AffineEta, CharacteristicRoot, Invariance, VectorField,
                       bernoulli_gf, char_roots, check_invariance,
                       exp_symmetry_fields, flow, prolong_apply,
                       vertical_from_solution)

__version__ = "0.1.0"
