"""Invariant solutions of the catalog systems.

A one dimensional subalgebra with generator X = xi d_x + eta d_y produces
the ansatz y = h(x; params) together with a compatible delay x- = k(x; B).
Substituting the ansatz into the system leaves finitely many scalar
constraints linking the ansatz parameters to the case constants.  Solving
them classifies each parameter as free, determined, or pinned by an
existence condition, and classifies the family as solved, trivial only
(the zero function is the only member), or without solutions.  Each case's
families, with their constraint solvers, are rows of the catalog table in
dods.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Mapping

from . import dods as dodsmod
from . import expr as ex
from .dods import (CatalogCase, ConstraintSolution, Dods, Status, _max_residual,
                   _window_for)
from .errors import ParameterDomainError, StatusError
from .symmetry import VectorField

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


class Role(enum.Enum):
    FREE = "free"
    DETERMINED = "determined"
    EXISTENCE = "existence"


class InvariantFamily(ex.Record):
    """One subalgebra of the optimal system with its reduction ansatz."""

    _hidden = ("solver", "generator_fn")  # not a field: the fields left out of repr
    case_id: str
    label: str
    case_params: Mapping[str, float]
    reduction_h: ex.Expr
    reduction_k: ex.Expr
    roles: Mapping[str, Role]
    solver: Callable[["InvariantFamily", Mapping[str, float] | None],
                     ConstraintSolution]
    generator_fn: Callable[[Mapping[str, float]], VectorField]
    notes: str = ""

    def generator(self, params: Mapping[str, float]) -> VectorField:
        return self.generator_fn(params)


def solve_constraints(fam: InvariantFamily,
                      fixed: Mapping[str, float] | None = None
                      ) -> ConstraintSolution:
    """Solve the family's constraints; `fixed` pins parameters that would
    otherwise come from an existence equation."""
    return fam.solver(fam, dict(fixed) if fixed else None)


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
           window: tuple[float, float] | None = None,
           samples: int = 240) -> float:
    """Independent oracle: largest |y' - f(x, y, ym)| of the candidate over
    the window, with ym evaluated through the delay relation."""
    if samples < 1:
        raise ParameterDomainError("need at least one sample")
    e = ex.as_expr(y, ("x",))
    f = ex.compile(e, ("x",))
    df = ex.compile(ex.fold(ex.differentiate(e, "x")), ("x",))
    lo, hi = window if window is not None else _window_for(d.domain)
    return _max_residual(d, lo, hi, samples, lambda x: (f(x), df(x)), f)


def _check_fixed(fixed: Mapping[str, float] | None, allowed: tuple[str, ...]
                 ) -> dict[str, float]:
    out = dict(fixed or {})
    for key in out:
        if key not in allowed:
            raise ParameterDomainError(
                f"only {sorted(allowed)} can be pinned here, not {key!r}")
    return out


def families(case: CatalogCase | str) -> tuple[InvariantFamily, ...]:
    """The case's one dimensional subalgebras that admit an invariant
    ansatz, in catalog order.  Cases whose symmetries all act vertically
    (or trivially on x) have no reduction and return an empty tuple."""
    rcase = dodsmod.resolve_case(case)
    spec = dodsmod._CASES[rcase.id]
    p = dict(rcase.params or {})
    return tuple(_family(rcase.id, p, spec.k, row) for row in spec.families(p))


def _family(cid: str, p: dict, k: ex.Expr, row: "dodsmod._Family") -> InvariantFamily:
    roles = {name: Role(role) for name, role in (r.split(":") for r in row.roles.split())}
    # a family's rate a, when it has one, is the only parameter a caller may pin
    allowed = ("a",) if "a" in roles else ()
    return InvariantFamily(
        cid, row.label, p, row.h, k, roles,
        lambda fam, fixed: row.solve(_check_fixed(fixed, allowed)),
        lambda m: VectorField(*row.field(m), name=row.label), row.notes)
