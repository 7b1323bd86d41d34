"""Invariant solutions of the catalog systems.

A one dimensional subalgebra with generator X = xi d_x + eta d_y produces
the ansatz y = h(x; params) together with a compatible delay x- = k(x; B).
Substituting the ansatz into the system leaves finitely many scalar
constraints linking the ansatz parameters to the case constants.  Solving
them classifies each parameter as free, determined, or pinned by an
existence condition, and classifies the family as solved, trivial only
(the zero function is the only member), or without solutions.  Each
family is an InvariantFamily built from a row of the catalog table in
dods, which keeps the constraint solver; this module keeps solve_constraints,
build_solution and verify, and re-exports the records and families from dods.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from . import expr as ex
from .dods import (ConstraintSolution, Dods, InvariantFamily, Role, Status, _golden_points,
                   _max_residual, _window_for, families)
from .errors import ParameterDomainError, StatusError

__all__ = [
    "Role",
    "Status",
    "InvariantFamily",
    "ConstraintSolution",
    "families",
    "solve_constraints",
    "build_solution",
    "verify",
]


def solve_constraints(fam: InvariantFamily,
                      fixed: Mapping[str, float] | None = None
                      ) -> ConstraintSolution:
    """Solve the family's constraints; `fixed` pins parameters that would
    otherwise come from an existence equation.  A family's rate a, when it
    has one, is the only parameter a caller may pin, and only to a finite
    value."""
    pins = dict(fixed or {})
    allowed = ["a"] if "a" in fam.roles else []
    for key, value in pins.items():
        if key not in allowed:
            raise ParameterDomainError(f"only {allowed} can be pinned here, not {key!r}")
        if not math.isfinite(value):
            raise ParameterDomainError(f"{fam.case_id} needs a finite pinned {key}, got {value!r}")
    return fam._row()[2](pins)


def build_solution(fam: InvariantFamily, sol: ConstraintSolution,
                   free: Mapping[str, float] | None = None
                   ) -> tuple[ex.Expr, float]:
    """Closed form y(x) and the delay constant B for a solved family.
    Unassigned free parameters default to 1."""
    if sol.status is not Status.SOLVED:
        raise StatusError(
            f"family {fam.label} of {fam.case_id} has status {sol.status.value}; "
            "only solved families produce solutions")
    values = dict(sol.params)
    for name in sol.free:
        values[name] = 1.0
    if free:
        for name, v in free.items():
            if name not in sol.free:
                raise ParameterDomainError(
                    f"{name!r} is not free in family {fam.label}; "
                    f"free parameters: {sorted(sol.free)}")
            values[name] = float(v)
    subs = {k: ex.Num(float(v)) for k, v in values.items()}
    y = ex.fold(ex.substitute(fam.reduction_h, subs))
    left = ex.variables_of(y) - {"x"}
    if left:
        raise StatusError(f"unresolved parameters {sorted(left)} in the ansatz")
    b = values["B"]
    ref = values.get("C2", values.get("C", b))
    if abs(b - ref) > 1e-12 * (1.0 + abs(ref)):
        raise StatusError(
            f"delay constant B = {b!r} disagrees with the case delay {ref!r}")
    return y, b


def verify(y: "ex.Expr | str", d: Dods,
           window: tuple[float, float] | None = None) -> float:
    """Independent oracle: largest |y' - f(x, y, ym)| of the candidate at 240
    points of the window, ym read through the delay relation.  Whole columns
    go in turn (g, y with y', y at g(x), f), so an error can be a later x's."""
    e = ex.as_expr(y, ("x",))
    xs = _golden_points(*(window if window is not None else _window_for(d.domain)), 240)
    xms = d.delay.delayed_points(xs)
    ys, dys = ex.compile_columns((e, ex.fold(ex.differentiate(e, "x"))), ("x",))(xs)
    (yms,) = ex.compile_columns((e,), ("x",))(xms)
    return _max_residual(d, xs, ys, dys, yms)
