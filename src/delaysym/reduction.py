"""Invariant solutions of the catalog systems.

A one dimensional subalgebra with generator X = xi d_x + eta d_y produces
the ansatz y = h(x; params) together with a compatible delay x- = k(x; B).
Substituting the ansatz into the system leaves finitely many scalar
constraints linking the ansatz parameters to the case constants.  Solving
them classifies each parameter as free, determined, or pinned by an
existence condition, and classifies the family as solved, trivial only
(the zero function is the only member), or without solutions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

from . import dods as dodsmod
from . import expr as ex
from .dods import CatalogCase, Dods, _expr_with, _window_for
from .errors import (BracketNotFound, NonConvergence, ParameterDomainError,
                     StatusError)
from .numerics import hybrid_root, scan_bracket
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


class Status(enum.Enum):
    SOLVED = "solved"
    TRIVIAL_ONLY = "trivial-only"
    NO_SOLUTION = "no-solution"


@dataclass(frozen=True)
class ConstraintSolution:
    status: Status
    params: Mapping[str, float]
    free: tuple[str, ...] = ()
    residuals: tuple[float, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class InvariantFamily:
    """One subalgebra of the optimal system with its reduction ansatz."""

    case_id: str
    label: str
    case_params: Mapping[str, float]
    reduction_h: ex.Expr
    reduction_k: ex.Expr
    roles: Mapping[str, Role]
    solver: Callable[["InvariantFamily", Optional[Mapping[str, float]]],
                     ConstraintSolution] = field(repr=False)
    generator_fn: Callable[[Mapping[str, float]], VectorField] = field(repr=False)
    notes: str = ""

    def generator(self, params: Mapping[str, float]) -> VectorField:
        return self.generator_fn(params)


def solve_constraints(fam: InvariantFamily,
                      fixed: Optional[Mapping[str, float]] = None
                      ) -> ConstraintSolution:
    """Solve the family's constraints; `fixed` pins parameters that would
    otherwise come from an existence equation."""
    return fam.solver(fam, dict(fixed) if fixed else None)


def build_solution(fam: InvariantFamily, sol: ConstraintSolution,
                   free: Optional[Mapping[str, float]] = None
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
           window: Optional[tuple[float, float]] = None,
           samples: int = 240) -> float:
    """Independent oracle: largest |r1| of the candidate over the window,
    with ym evaluated through the delay relation."""
    if samples < 1:
        raise ParameterDomainError("need at least one sample")
    e = ex.as_expr(y, ("x",))
    f = ex.compile(e, ("x",))
    df = ex.compile(ex.fold(ex.differentiate(e, "x")), ("x",))
    lo, hi = window if window is not None else _window_for(d.domain)
    worst = 0.0
    for i in range(samples):
        x = lo + (hi - lo) * ((i + 0.6180339887498949) / samples)
        xm = d.delay.delayed_point(x)
        yv = f(x)
        ymv = f(xm)
        dv = df(x)
        r1, r2 = d.residual(x, yv, xm, ymv, dv)
        worst = max(worst, abs(r1), abs(r2))
    return worst


# ---------------------------------------------------------------------------
# family construction


_K_CONST = ex.parse("x - B", ("x", "B"))
_K_SCALE = ex.parse("B*x", ("x", "B"))
_K_MOEBIUS = ex.parse("(x - B)/(1 + B*x)", ("x", "B"))


def _sol(status: Status, params: Mapping[str, float], free: tuple[str, ...] = (),
         residuals: tuple[float, ...] = (), note: str = "") -> ConstraintSolution:
    return ConstraintSolution(status, dict(params), free, residuals, note)


def _root_in(f: Callable[[float], float], lo: float, hi: float) -> Optional[float]:
    try:
        a, b = scan_bracket(f, lo, hi)
    except BracketNotFound:
        return None
    return hybrid_root(f, a, b)


def _check_fixed(fixed: Optional[Mapping[str, float]], allowed: tuple[str, ...]
                 ) -> dict[str, float]:
    out = dict(fixed or {})
    for key in out:
        if key not in allowed:
            raise ParameterDomainError(
                f"only {sorted(allowed)} can be pinned here, not {key!r}")
    return out


def families(case: Union[CatalogCase, str]) -> tuple[InvariantFamily, ...]:
    """The case's one dimensional subalgebras that admit an invariant
    ansatz, in catalog order.  Cases whose symmetries all act vertically
    (or trivially on x) have no reduction and return an empty tuple."""
    rcase = dodsmod.resolve_case(case)
    cid = rcase.id
    p = dict(rcase.params or {})
    out: list[InvariantFamily] = []

    if cid == "A3_1":
        c1, c2 = p["C1"], p["C2"]

        def solve_a31(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                      ) -> ConstraintSolution:
            pins = _check_fixed(fixed, ("a",))
            a = pins.get("a", 2.0 * c1 / c2)
            res = abs(a * c2 / 2.0 - c1)
            if res > 1e-12 * (1.0 + abs(c1)):
                return _sol(Status.NO_SOLUTION, {**p, "a": a}, note=(
                    f"a = {a!r} violates a*C2/2 = C1"), residuals=(res,))
            return _sol(Status.SOLVED, {**p, "a": a, "B": c2}, ("A",), (res,))

        out.append(InvariantFamily(
            cid, "aX2+X3", p,
            ex.parse("(a/2)*x^2 + A", ("x", "a", "A")), _K_CONST,
            {"a": Role.DETERMINED, "A": Role.FREE, "B": Role.DETERMINED},
            solve_a31,
            lambda m: VectorField(ex.Num(1.0),
                                  _expr_with("a*x", {"a": m["a"]}, ("x", "y")),
                                  name="aX2+X3"),
            notes="parabolas drifting at the forcing rate"))

    elif cid == "A3_3" and p["a"] != 1.0:
        a_case, c1, c2 = p["a"], p["C1"], p["C2"]
        pexp = 1.0 / (1.0 - a_case)
        denom = pexp - (1.0 - c2 ** pexp) / (1.0 - c2)

        def solve_a33(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                      ) -> ConstraintSolution:
            _check_fixed(fixed, ())
            if abs(denom) <= 1e-12:
                if abs(c1) <= 1e-12:
                    return _sol(Status.SOLVED, {**p, "B": c2}, ("A",),
                                note="degenerate: the amplitude stays free")
                return _sol(Status.NO_SOLUTION, dict(p), note=(
                    "the power ansatz cannot carry the forcing"))
            amp = c1 / denom
            return _sol(Status.SOLVED, {**p, "A": amp, "B": c2},
                        residuals=(abs(amp * denom - c1),))

        out.append(InvariantFamily(
            cid, "X3", p,
            _expr_with("A * x^p", {"p": pexp}, ("x", "A")), _K_SCALE,
            {"A": Role.DETERMINED, "B": Role.DETERMINED},
            solve_a33,
            lambda m: VectorField(_expr_with("(1 - a)*x", {"a": a_case}),
                                  ex.Var("y"), name="X3"),
            notes="pure powers matched to the power law forcing"))

    elif cid == "A3_5":
        c1, c2 = p["C1"], p["C2"]

        def solve_a35(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                      ) -> ConstraintSolution:
            _check_fixed(fixed, ())
            denom = c2 - 1.0 + math.exp(-c2)
            amp = c1 * c2 / denom
            return _sol(Status.SOLVED, {**p, "A": amp, "B": c2},
                        residuals=(abs(amp * denom - c1 * c2),))

        out.append(InvariantFamily(
            cid, "X3", p,
            ex.parse("A*exp(x)", ("x", "A")), _K_CONST,
            {"A": Role.DETERMINED, "B": Role.DETERMINED},
            solve_a35,
            lambda m: VectorField(ex.Num(1.0), ex.Var("y"), name="X3"),
            notes="exponentials matched to the exponential forcing"))

    elif cid == "A3_7":
        b_case, c1, c2 = p["b"], p["C1"], p["C2"]

        def solve_a37(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                      ) -> ConstraintSolution:
            _check_fixed(fixed, ())
            denom = (b_case - 1.0 / c2
                     + math.sqrt(1.0 + c2 * c2) / c2 * math.exp(-b_case * math.atan(c2)))
            if abs(denom) <= 1e-12:
                if abs(c1) <= 1e-12:
                    return _sol(Status.SOLVED, {**p, "B": c2}, ("A",),
                                note="degenerate: the amplitude stays free")
                return _sol(Status.NO_SOLUTION, dict(p), note=(
                    "the spiral ansatz cannot carry the forcing"))
            amp = c1 / denom
            return _sol(Status.SOLVED, {**p, "A": amp, "B": c2},
                        residuals=(abs(amp * denom - c1),))

        out.append(InvariantFamily(
            cid, "X3", p,
            _expr_with("A*sqrt(1 + x^2)*exp(b*atan(x))", {"b": b_case}, ("x", "A")),
            _K_MOEBIUS,
            {"A": Role.DETERMINED, "B": Role.DETERMINED},
            solve_a37,
            lambda m: VectorField(ex.parse("1 + x^2", ("x",)),
                                  _expr_with("(x + b)*y", {"b": b_case}, ("x", "y")),
                                  name="X3"),
            notes="the projective orbit curves"))

    elif cid == "A3_13":
        c1, c2 = p["C1"], p["C2"]

        def solve_lines(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                        ) -> ConstraintSolution:
            _check_fixed(fixed, ())
            res = abs(c1 - 1.0)
            if res > 1e-12:
                return _sol(Status.NO_SOLUTION, dict(p), residuals=(res,),
                            note="straight lines exist only for C1 = 1")
            return _sol(Status.SOLVED, {**p, "B": c2}, ("A",), (res,))

        out.append(InvariantFamily(
            cid, "X1±X2", p,
            ex.parse("x + A", ("x", "A")), _K_CONST,
            {"A": Role.FREE, "B": Role.DETERMINED, "C1": Role.EXISTENCE},
            solve_lines,
            lambda m: VectorField(ex.Num(1.0), ex.Num(1.0), name="X1±X2"),
            notes="unit slope lines; the mirrored sign works identically"))

        def solve_exp(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                      ) -> ConstraintSolution:
            pins = _check_fixed(fixed, ("a",))

            def f(a: float) -> float:
                return a - c1 * (1.0 - math.exp(-a * c2)) / c2

            if "a" in pins:
                a = pins["a"]
                res = abs(f(a))
                if res > 1e-12 * (1.0 + abs(a)):
                    return _sol(Status.TRIVIAL_ONLY, {**p, "a": a}, residuals=(res,),
                                note="the pinned rate fails the existence "
                                     "equation; only y = 0 remains")
                return _sol(Status.SOLVED, {**p, "a": a, "B": c2}, ("A",), (res,))
            a = _root_in(f, 1e-6, 10.0)
            if a is None:
                a = _root_in(f, -10.0, -1e-6)
            note = ""
            if a is None:
                a = 0.0
                note = "no nonzero rate satisfies the existence equation; " \
                       "the family degenerates to constants"
            return _sol(Status.SOLVED, {**p, "a": a, "B": c2}, ("A",),
                        (abs(f(a)),), note)

        out.append(InvariantFamily(
            cid, "X1+aX3", p,
            ex.parse("A*exp(a*x)", ("x", "A", "a")), _K_CONST,
            {"a": Role.EXISTENCE, "A": Role.FREE, "B": Role.DETERMINED},
            solve_exp,
            lambda m: VectorField(ex.Num(1.0),
                                  _expr_with("a*y", {"a": m["a"]}, ("x", "y")),
                                  name="X1+aX3"),
            notes="exponentials whose rate solves a transcendental equation"))

    elif cid == "A3_14":
        c1, c2 = p["C1"], p["C2"]

        def solve_a314(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                       ) -> ConstraintSolution:
            pins = _check_fixed(fixed, ("a",))
            denom = 1.0 + c2 * math.log(c2) / (1.0 - c2)
            a = pins.get("a", c1 / denom)
            res = abs(a * denom - c1)
            if res > 1e-12 * (1.0 + abs(c1)):
                return _sol(Status.NO_SOLUTION, {**p, "a": a}, residuals=(res,),
                            note=f"a = {a!r} violates the slope constraint")
            return _sol(Status.SOLVED, {**p, "a": a, "B": c2}, ("A",), (res,))

        out.append(InvariantFamily(
            cid, "aX1+X3", p,
            ex.parse("a*x*ln(x) + A*x", ("x", "a", "A")), _K_SCALE,
            {"a": Role.DETERMINED, "A": Role.FREE, "B": Role.DETERMINED},
            solve_a314,
            lambda m: VectorField(ex.Var("x"),
                                  _expr_with("a*x + y", {"a": m["a"]}, ("x", "y")),
                                  name="aX1+X3"),
            notes="logarithmic spirals of the scaling group"))

    elif cid == "A4_12":
        c = p["C"]

        def solve_const(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                        ) -> ConstraintSolution:
            _check_fixed(fixed, ())
            return _sol(Status.SOLVED, {**p, "B": c}, ("A",))

        out.append(InvariantFamily(
            cid, "X1", p,
            ex.parse("A", ("x", "A")), _K_CONST,
            {"A": Role.FREE, "B": Role.DETERMINED},
            solve_const,
            lambda m: VectorField(ex.Num(1.0), ex.Num(0.0), name="X1"),
            notes="constants"))

        def solve_parab(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                        ) -> ConstraintSolution:
            _check_fixed(fixed, ())
            return _sol(Status.NO_SOLUTION, dict(p), residuals=(c,), note=(
                "the parabola ansatz needs a vanishing delay spacing, but "
                f"the delay fixes B = {c!r}"))

        out.append(InvariantFamily(
            cid, "X1±X2", p,
            ex.parse("x^2/2 + A", ("x", "A")), _K_CONST,
            {"A": Role.FREE, "B": Role.DETERMINED},
            solve_parab,
            lambda m: VectorField(ex.Num(1.0), ex.Var("x"), name="X1±X2"),
            notes="incompatible: two constraints pin B to different values"))

        def solve_a412exp(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                          ) -> ConstraintSolution:
            pins = _check_fixed(fixed, ("a",))

            def f(lam: float) -> float:
                return lam - (1.0 - math.exp(-lam * c)) / c

            if "a" in pins:
                a = pins["a"]
                if a == 0.0:
                    raise ParameterDomainError("the rate 1/a requires a != 0")
                res = abs(f(1.0 / a))
                if res > 1e-12 * (1.0 + abs(1.0 / a)):
                    return _sol(Status.TRIVIAL_ONLY, {**p, "a": a}, residuals=(res,),
                                note="the pinned rate fails the existence "
                                     "equation; only y = 0 remains")
                return _sol(Status.SOLVED, {**p, "a": a, "B": c}, ("A",), (res,))
            lam = _root_in(f, 1e-6, 10.0)
            if lam is None:
                lam = _root_in(f, -10.0, -1e-6)
            if lam is None:
                return _sol(Status.TRIVIAL_ONLY, dict(p), note=(
                    "the existence equation 1/a = (1 - exp(-C/a))/C has no "
                    "nonzero real solution; only y = 0 remains"))
            return _sol(Status.SOLVED, {**p, "a": 1.0 / lam, "B": c}, ("A",),
                        (abs(f(lam)),))

        out.append(InvariantFamily(
            cid, "aX1+X4", p,
            ex.parse("A*exp(x/a)", ("x", "A", "a")), _K_CONST,
            {"a": Role.EXISTENCE, "A": Role.FREE, "B": Role.DETERMINED},
            solve_a412exp,
            lambda m: VectorField(_expr_with("a", {"a": m["a"]}), ex.Var("y"),
                                  name="aX1+X4"),
            notes="the exponential rate equation has no real nonzero root"))

    elif cid == "A4_14":
        c = p["C"]

        def solve_a414(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                       ) -> ConstraintSolution:
            pins = _check_fixed(fixed, ("a",))

            def g(a: float) -> float:
                return (a - 1.0 / c
                        + math.sqrt(1.0 + c * c) / c * math.exp(-a * math.atan(c)))

            if "a" in pins:
                a = pins["a"]
                res = abs(g(a))
                if res > 1e-12 * (1.0 + abs(a)):
                    return _sol(Status.TRIVIAL_ONLY, {**p, "a": a}, residuals=(res,),
                                note="the pinned rate fails the existence "
                                     "equation; only y = 0 remains")
                return _sol(Status.SOLVED, {**p, "a": a, "B": c}, ("A",), (res,))
            a = _root_in(g, -10.0, 10.0)
            if a is None:
                return _sol(Status.TRIVIAL_ONLY, dict(p), note=(
                    "the spiral rate equation has no real solution; "
                    "only y = 0 remains"))
            return _sol(Status.SOLVED, {**p, "a": a, "B": c}, ("A",), (abs(g(a)),))

        out.append(InvariantFamily(
            cid, "aX3+X4", p,
            ex.parse("A*sqrt(1 + x^2)*exp(a*atan(x))", ("x", "A", "a")),
            _K_MOEBIUS,
            {"a": Role.EXISTENCE, "A": Role.FREE, "B": Role.DETERMINED},
            solve_a414,
            lambda m: VectorField(ex.parse("1 + x^2", ("x",)),
                                  _expr_with("(a + x)*y", {"a": m["a"]}, ("x", "y")),
                                  name="aX3+X4"),
            notes="the projective spiral rate equation has no real root"))

    elif cid == "A4_21":
        c = p["C"]

        def solve_y1(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                     ) -> ConstraintSolution:
            _check_fixed(fixed, ())
            return _sol(Status.SOLVED, {**p, "B": c}, ("A",))

        out.append(InvariantFamily(
            cid, "Y1", p,
            ex.parse("A", ("x", "A")), _K_SCALE,
            {"A": Role.FREE, "B": Role.DETERMINED},
            solve_y1,
            lambda m: VectorField(ex.Var("x"), ex.Num(0.0), name="Y1"),
            notes="constants"))

        def solve_log(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                      ) -> ConstraintSolution:
            _check_fixed(fixed, ())

            def q(cc: float) -> float:
                return math.log(abs(cc)) - cc + 1.0

            if abs(q(c)) <= 1e-12:
                return _sol(Status.SOLVED, {**p, "B": c}, ("A",), (abs(q(c)),))
            try:
                star = hybrid_root(q, -1.0 / math.e + 1e-9, -1e-9)
            except (BracketNotFound, NonConvergence):
                return _sol(Status.NO_SOLUTION, dict(p), note=(
                    "no delay ratio satisfies ln|C| = C - 1"))
            return _sol(Status.SOLVED, {"C": star, "B": star}, ("A",),
                        (abs(q(star)),),
                        note=(f"the case ratio C = {c!r} fails ln|C| = C - 1; "
                              f"the family exists at C = {star!r}"))

        out.append(InvariantFamily(
            cid, "Y1±Y2", p,
            ex.parse("ln(abs(x)) + A", ("x", "A")), _K_SCALE,
            {"A": Role.FREE, "C": Role.EXISTENCE, "B": Role.DETERMINED},
            solve_log,
            lambda m: VectorField(ex.Var("x"), ex.Num(1.0), name="Y1±Y2"),
            notes="logarithms; they pin the delay ratio itself"))

        def solve_pow(fam: InvariantFamily, fixed: Optional[Mapping[str, float]]
                      ) -> ConstraintSolution:
            pins = _check_fixed(fixed, ("a",))

            def f(pw: float) -> float:
                return pw - (1.0 - _cpow(c, pw)) / (1.0 - c)

            if "a" in pins:
                a = pins["a"]
                if a == 0.0:
                    raise ParameterDomainError("the exponent 1/a requires a != 0")
                res = abs(f(1.0 / a))
                if res > 1e-12 * (1.0 + abs(1.0 / a)):
                    return _sol(Status.TRIVIAL_ONLY, {**p, "a": a}, residuals=(res,),
                                note="the pinned exponent fails the existence "
                                     "equation; only y = 0 remains")
                return _sol(Status.SOLVED, {**p, "a": a, "B": c}, ("A",), (res,))
            if c < 0.0:
                # only integer exponents stay real valued at xm = C x < 0;
                # pw = 1 satisfies the equation identically
                return _sol(Status.SOLVED, {**p, "a": 1.0, "B": c}, ("A",),
                            (abs(f(1.0)),), note="linear branch")
            pw = _root_in(f, 1e-6, 10.0)
            if pw is None:
                return _sol(Status.TRIVIAL_ONLY, dict(p), note=(
                    "no positive exponent satisfies the existence equation"))
            return _sol(Status.SOLVED, {**p, "a": 1.0 / pw, "B": c}, ("A",),
                        (abs(f(pw)),))

        out.append(InvariantFamily(
            cid, "aY1+Y4", p,
            ex.parse("A*x^(1/a)", ("x", "A", "a")), _K_SCALE,
            {"a": Role.EXISTENCE, "A": Role.FREE, "B": Role.DETERMINED},
            solve_pow,
            lambda m: VectorField(_expr_with("a*x", {"a": m["a"]}), ex.Var("y"),
                                  name="aY1+Y4"),
            notes="power laws of the scaling group"))

    return tuple(out)


def _cpow(c: float, pw: float) -> float:
    """c^pw, extended to negative c for integer exponents."""
    if c > 0.0:
        return c ** pw
    if abs(pw - round(pw)) <= 1e-9:
        return (-1.0) ** int(round(pw)) * abs(c) ** pw
    return abs(c) ** pw
