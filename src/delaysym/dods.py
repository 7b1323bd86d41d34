"""Delay ordinary differential systems.

A DODS couples a first order delay differential equation with an explicit
delay relation:

    dy/dx = f(x, y, y-),      x- = g(x),  g(x) < x,

where y- means y(x-).  The linear right hand side is
alpha(x)*y + beta(x)*y- + gamma(x); beta must not vanish identically or the
delay term disappears and the system degenerates to an ODE.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence

from . import expr as ex
from .delay import (ConstantDelay, DelayRelation, MoebiusDelay, _check_x0, _unquote,
                    parse_delay_spec, scale_delay)
from .errors import (BracketNotFound, DelaySymError, DomainError, NoDodsError,
                     NonConvergence, ParameterDomainError, SchemeMismatch)
from .numerics import hybrid_root, scan_bracket

__all__ = [
    "LinearRhs",
    "GeneralRhs",
    "Dods",
    "InitialCondition",
    "initial_condition",
    "homogenized",
    "load_spec",
    "CaseInfo",
    "CatalogCase",
    "CatalogEntry",
    "CASE_IDS",
    "list_cases",
    "resolve_case",
    "catalog",
    "Role",
    "Status",
    "InvariantFamily",
    "ConstraintSolution",
    "families",
]

_Y = ex.Var("y")
_YM = ex.Var("ym")


class LinearRhs(ex.Record):
    """dy/dx = alpha(x)*y + beta(x)*y- + gamma(x)."""

    alpha: ex.Expr
    beta: ex.Expr
    gamma: ex.Expr

    def __post_init__(self) -> None:
        for name, e in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            ex.check_variables(e, {"x"}, f"{name} may only depend on x")

    def _tree(self) -> ex.Expr:
        """alpha*y + beta*ym + gamma in that order of operations, unfolded."""
        return ex.Binary("+", ex.Binary("+", ex.Binary("*", self.alpha, _Y),
                                        ex.Binary("*", self.beta, _YM)), self.gamma)

    def as_expr(self) -> ex.Expr:
        return ex.fold(self._tree())


class GeneralRhs(ex.Record):
    """dy/dx = f(x, y, y-)."""

    f: ex.Expr

    def __post_init__(self) -> None:
        ex.check_variables(self.f, {"x", "y", "ym"}, "right hand side may only use x, y, ym")

    def as_expr(self) -> ex.Expr:
        return self.f

    _tree = as_expr


class Dods(ex.Record):
    """A delay equation together with its delay relation.

    rhs_manifold, when present, writes the right hand side as a function of
    the four manifold coordinates (x, y, xm, ym) without substituting
    xm = g(x).  Prolongations differentiate it with respect to each
    coordinate separately, which is not recoverable from the substituted
    coefficients.
    """

    rhs: LinearRhs | GeneralRhs
    delay: DelayRelation
    domain: tuple[float, float] = (-math.inf, math.inf)
    rhs_manifold: ex.Expr | None = None

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not lo < hi:
            raise ParameterDomainError(f"empty domain ({lo!r}, {hi!r})")
        if self.rhs_manifold is not None:
            ex.check_variables(self.rhs_manifold, {"x", "y", "xm", "ym"},
                               "manifold form may only use x, y, xm, ym")

    # Compiled forms of the trees, and the derivative trees a prolongation
    # compiles, built on first use and kept with the system; nothing is
    # differentiated or compiled while a system is only built or printed.

    @functools.cached_property
    def rhs_fn(self) -> Callable[[float, float, float], float]:
        """f(x, y, ym) compiled from the right hand side's unfolded tree."""
        return ex.compile(self.rhs._tree(), ("x", "y", "ym"))

    @functools.cached_property
    def manifold_partials(self) -> tuple[ex.Expr, ...]:
        """Partial derivatives of the manifold form with respect to x, y, xm
        and ym, as trees over (x, y, xm, ym).  Without a manifold form the
        substituted right hand side stands in, with no xm dependence left; a
        manifold form that disagrees with it raises (_check_manifold)."""
        if self.rhs_manifold is not None:
            _check_manifold(self)
        m = self.rhs_manifold if self.rhs_manifold is not None else self.rhs.as_expr()
        return tuple(ex.fold(ex.differentiate(m, v)) for v in ("x", "y", "xm", "ym"))

    def rhs_value(self, x: float, y: float, ym: float) -> float:
        return self.rhs_fn(x, y, ym)


_AGREE = 1e-7  # values agree within it, absolute or relative; symmetry._PASSES too


def _check_manifold(d: Dods) -> None:
    """Raise ParameterDomainError at the first of 8 golden points x of the
    window, each with three (y, ym), where the manifold form at (x, y, g(x),
    ym) and rhs_fn at (x, y, ym) disagree; a sample that raises is skipped."""
    manifold = ex.compile(d.rhs_manifold, ("x", "y", "xm", "ym"))
    g, rhs = d.delay.delayed_point, d.rhs_fn
    for x in _golden_points(*_window_for(d.domain), 8):
        for y, ym in ((0.5, -1.25), (1.75, 0.5), (-1.5, 1.0)):
            try:
                xm = g(x)
                got, want = manifold(x, y, xm, ym), rhs(x, y, ym)
            except DelaySymError:
                continue
            gap = abs(got - want)  # the scale is taken only past the absolute test
            if gap > _AGREE and gap > _AGREE * (1.0 + max(abs(got), abs(want))):
                raise ParameterDomainError(
                    f"the manifold form gives {got!r} at (x, y, xm, ym) = ({x!r}, {y!r}, "
                    f"{xm!r}, {ym!r}), the right hand side {want!r}")


def homogenized(d: Dods) -> Dods:
    """The same system with the forcing term removed (gamma = 0)."""
    if not isinstance(d.rhs, LinearRhs):
        raise SchemeMismatch("only a linear right hand side has a homogeneous part")
    manifold = None
    if d.rhs_manifold is not None:
        manifold = ex.fold(ex.Binary("-", d.rhs_manifold, d.rhs.gamma))
    return Dods(LinearRhs(d.rhs.alpha, d.rhs.beta, ex.Num(0.0)), d.delay, d.domain,
                manifold)


class InitialCondition(ex.Record):
    """History function phi on [g(x0), x0], where g is the solved system's delay."""

    phi: ex.Expr
    x0: float

    def __post_init__(self) -> None:
        ex.check_variables(self.phi, {"x"}, "phi may only depend on x")


@functools.lru_cache(maxsize=256)
def _with_slope(e: ex.Expr) -> Callable[..., tuple[list[float], list[float]]]:
    """A function of an x column that returns e's values and those of its
    x-derivative e' there, from one column kernel, so the subtrees they
    share run once; cached by the interned tree.  Where that kernel raises
    DomainError, e is taken at every point and then e', each by a kernel of
    its own compiled then, so e's first failure is raised before any of e'."""
    de = ex.differentiate(e, "x")
    both = ex.compile_columns((e, de), ("x",))

    def with_slope(xs: Sequence[float]) -> tuple[list[float], list[float]]:
        try:
            return both(xs)
        except DomainError:
            for t in (e, de):
                ex.compile_columns((t,), ("x",))(xs)
            raise
    return with_slope


def initial_condition(phi: "ex.Expr | str", relation: DelayRelation, x0: float) -> InitialCondition:
    """The history record of phi from x0; a non-finite x0 raises
    ParameterDomainError, and one where g(x0) fails raises its error."""
    _check_x0(x0)
    relation.delayed_point(x0)
    return InitialCondition(ex.as_expr(phi, ("x",)), x0)


def validate_beta(d: Dods) -> None:
    """Reject a linear system whose beta is zero by structure (ex.is_zero)."""
    if isinstance(d.rhs, LinearRhs) and ex.is_zero(d.rhs.beta):
        raise ParameterDomainError(
            "delay coefficient beta vanishes identically; the system is an ODE")


def _golden_points(lo: float, hi: float, samples: int) -> list[float]:
    """Samples lo + (hi - lo)(i + golden)/samples, i < samples, inside (lo, hi)."""
    return [lo + (hi - lo) * ((i + 0.6180339887498949) / samples) for i in range(samples)]


def _max_residual(d: Dods, xs: Iterable[float], ys: Iterable[float],
                  dys: Iterable[float], yms: Iterable[float]) -> float:
    """Largest |dy - f(x, y, ym)| over columns of a candidate's value y and
    slope dy at x and its value ym at g(x), all read before f is taken.  A
    residual that is not finite (r - r is not 0.0) raises DomainError naming
    the first such x: a NaN fails every comparison, so it would read as zero."""
    rhs = d.rhs_fn
    worst = 0.0
    for x, y, dy, ym in zip(xs, ys, dys, yms):
        r = dy - rhs(x, y, ym)
        if not r - r == 0.0:
            raise DomainError(f"the residual at x = {x!r} is {abs(r)!r}, not finite")
        if r > worst:
            worst = r
        elif -r > worst:
            worst = -r
    return worst


# ---------------------------------------------------------------------------
# plain text system files


def _number(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParameterDomainError(f"{key} needs a number, got {raw.strip()!r}") from None


def _parse_domain(raw: str) -> tuple[float, float]:
    raw = raw.strip()
    if not (raw.startswith("(") and raw.endswith(")")):
        raise ParameterDomainError(f"domain must look like (lo, hi), got {raw!r}")
    parts = raw[1:-1].split(",")
    if len(parts) != 2:
        raise ParameterDomainError(f"domain must have two bounds, got {raw!r}")
    return _number("domain", parts[0]), _number("domain", parts[1])


_KEYS = ("rhs.kind", "alpha", "beta", "gamma", "f", "delay", "domain", "phi", "x0")


def load_spec(text: str) -> tuple[Dods, InitialCondition | None]:
    """Parse a key = value system file; lines starting with # and blank
    lines are ignored.  Each key of _KEYS may appear once: alpha, beta and
    gamma only where rhs.kind is linear (the default), f only where it is
    general.  Returns the system and, when phi and x0 are present, the
    initial condition; a file that sets only one of them is rejected.
    """
    fields: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterDomainError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key not in _KEYS or key in fields:
            problem = "is set twice" if key in fields else f"is not one of {', '.join(_KEYS)}"
            raise ParameterDomainError(f"line {lineno}: key {key!r} {problem}")
        fields[key], lines[key] = value, lineno

    kind = _unquote(fields.get("rhs.kind", "linear")).lower()
    for key in {"linear": ("f",), "general": ("alpha", "beta", "gamma")}.get(kind, ()):
        if key in fields:
            raise ParameterDomainError(
                f"line {lines[key]}: key {key!r} does not belong in a {kind} system file")
    if "delay" not in fields:
        raise ParameterDomainError("system file is missing the delay key")
    relation = parse_delay_spec(_unquote(fields["delay"]))

    rhs: LinearRhs | GeneralRhs
    if kind == "linear":
        def coeff(name: str, default: str) -> ex.Expr:
            return ex.parse(_unquote(fields.get(name, default)), ("x",))
        rhs = LinearRhs(coeff("alpha", "0"), coeff("beta", "0"), coeff("gamma", "0"))
    elif kind == "general":
        if "f" not in fields:
            raise ParameterDomainError("rhs.kind = general requires an f key")
        rhs = GeneralRhs(ex.parse(_unquote(fields["f"]), ("x", "y", "ym")))
    else:
        raise ParameterDomainError(f"rhs.kind must be linear or general, got {kind!r}")

    domain = _parse_domain(fields["domain"]) if "domain" in fields else (-math.inf, math.inf)
    d = Dods(rhs, relation, domain)

    x0 = _number("x0", fields["x0"]) if "x0" in fields else None
    if ("phi" in fields) != (x0 is not None):
        given, missing = ("phi", "x0") if x0 is None else ("x0", "phi")
        raise ParameterDomainError(f"system file sets {given} but not {missing}; "
                                   "an initial condition needs both")
    if x0 is None:
        return d, None
    return d, initial_condition(_unquote(fields["phi"]), relation, x0)


# ---------------------------------------------------------------------------
# the catalog of invariant systems
#
# Each entry realizes a low dimensional symmetry algebra by a linear DODS.
# The slope (y - ym)/(x - xm) is the common building block: it is invariant
# under simultaneous translations and scalings of both points.


_SLOPE = ex.parse("(y - ym)/(x - xm)", ("x", "y", "xm", "ym"))
_ZERO = ex.Num(0.0)
_ONE = ex.Num(1.0)
_X = ex.Var("x")


@functools.lru_cache(maxsize=None)
def _parsed(text: str, variables: tuple[str, ...] = ("x",)) -> ex.Expr:
    """A tree of the catalog's own text, parsed once per process."""
    return ex.parse(text, variables)


def _expr_with(text: str, values: Mapping[str, float],
               variables: tuple[str, ...] = ("x",)) -> ex.Expr:
    e = _parsed(text, tuple(variables) + tuple(values))
    return ex.fold(ex.substitute(e, {k: ex.Num(float(v)) for k, v in values.items()}))


def _slope_system(relation: DelayRelation, gamma: ex.Expr | None = None,
                  factor: ex.Expr | None = None,
                  domain: tuple[float, float] | None = None) -> Dods:
    """y' = factor(x) (y - ym)/(x - g(x)) + gamma(x) on the domain, by
    default the one the relation delays on."""
    inv = ex.fold(ex.Binary("/", factor if factor is not None else _ONE,
                            relation.gap_expr()))
    manifold = _SLOPE if factor is None else ex.Binary("*", factor, _SLOPE)
    if gamma is not None:
        manifold = ex.Binary("+", manifold, gamma)
    return Dods(LinearRhs(inv, ex.fold(ex.Unary("neg", inv)),
                          gamma if gamma is not None else _ZERO),
                relation, domain or relation.default_domain(), ex.fold(manifold))


def _nonzero_forcing(d: Dods) -> Dods:
    if ex.is_zero(d.rhs.gamma):
        raise ParameterDomainError(
            "A2_3 needs f not identically zero; A2_1 covers the homogeneous equation")
    return d


def _check_defined(e: ex.Expr) -> None:
    """Raise the DomainError of a constant subtree of a folded tree, which fold
    keeps only when it raises: e then raises at every point."""
    kids = [getattr(e, name) for name in ("child", "left", "right") if hasattr(e, name)]
    if kids and all(isinstance(kid, ex.Num) for kid in kids):
        ex.evaluate(e, {})
    for kid in kids:
        _check_defined(kid)


def _window_for(domain: tuple[float, float]) -> tuple[float, float]:
    lo, hi = domain
    if math.isinf(lo) and math.isinf(hi):
        return (-1.0, 3.0)
    if math.isinf(hi):
        return (lo + 0.4, lo + 3.9)
    if math.isinf(lo):
        return (hi - 3.9, hi - 0.4)
    return (lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))


class CaseInfo(ex.Record):
    """One line of the catalog listing."""

    id: str
    equation: str
    delay: str
    parameters: str
    admits_system: bool = True


class CatalogCase(ex.Record):
    """A catalog id plus whatever the case leaves free: numeric parameters,
    an arbitrary function f, an arbitrary delay relation."""

    id: str
    params: Mapping[str, float] | None = None
    f: ex.Expr | str | None = None
    delay: DelayRelation | str | None = None


class CatalogEntry(ex.Record):
    case: CatalogCase
    dods: Dods
    algebra: tuple
    families: tuple
    window: tuple[float, float]


# ---------------------------------------------------------------------------
# constraint solvers of the invariant families


class Status(enum.Enum):
    SOLVED = "solved"
    TRIVIAL_ONLY = "trivial-only"
    NO_SOLUTION = "no-solution"


class ConstraintSolution(ex.Record):
    status: Status
    params: Mapping[str, float]
    free: tuple[str, ...] = ()
    residuals: tuple[float, ...] = ()
    note: str = ""


class Role(enum.Enum):
    FREE = "free"
    DETERMINED = "determined"
    EXISTENCE = "existence"


class InvariantFamily(ex.Record):
    """One subalgebra of the optimal system with its ansatz y = h(x; params)
    and delay x- = k(x; B).  Its constraint solver and generator stay in
    the case table, in the row _row() reads."""

    case_id: str
    label: str
    case_params: Mapping[str, float]
    reduction_h: ex.Expr
    reduction_k: ex.Expr
    roles: Mapping[str, Role]
    notes: str = ""

    def _row(self) -> tuple:
        """(h, roles, solver, generator, notes) of the family's case row."""
        return _CASES[self.case_id].families(self.case_params)[self.label]

    def generator(self, params: Mapping[str, float]) -> "VectorField":
        from .symmetry import VectorField
        return VectorField(*self._row()[3](params), name=self.label)


def _sol(status: Status, params: Mapping[str, float], free: tuple[str, ...] = (),
         residuals: tuple[float, ...] = (), note: str = "") -> ConstraintSolution:
    return ConstraintSolution(status, dict(params), free, residuals, note)


def _root_in(f: Callable[[float], float], lo: float, hi: float) -> float | None:
    try:
        a, b = scan_bracket(f, lo, hi)
    except BracketNotFound:
        return None
    return hybrid_root(f, a, b)


def _cpow(c: float, pw: float) -> float:
    """c^pw, extended to negative c for integer exponents."""
    if c > 0.0:
        return c ** pw
    if abs(pw - round(pw)) <= 1e-9:
        return (-1.0) ** int(round(pw)) * abs(c) ** pw
    return abs(c) ** pw


# The three transcendental equations of the catalog: what an exponential,
# a power and a projective spiral leave over after one delay step.

def _exp_gap(rate: float, c: float, gain: float = 1.0) -> float:
    """rate - gain (1 - exp(-rate c))/c, for x- = x - c."""
    return rate - gain * (1.0 - math.exp(-rate * c)) / c


def _power_gap(pw: float, c: float) -> float:
    """pw - (1 - c^pw)/(1 - c), for x- = c x."""
    return pw - (1.0 - _cpow(c, pw)) / (1.0 - c)


def _spiral_gap(a: float, c: float) -> float:
    """a - 1/c + sqrt(1 + c^2)/c exp(-a atan c), for the Moebius delay c."""
    return a - 1.0 / c + math.sqrt(1.0 + c * c) / c * math.exp(-a * math.atan(c))


def _slope_rate(p: dict, denom: float, rule: str) -> Callable[[dict], ConstraintSolution]:
    """The rate a with a*denom = C1, or a pinned a checked against it."""
    def solve(pins: dict) -> ConstraintSolution:
        a = pins.get("a", p["C1"] / denom)
        res = abs(a * denom - p["C1"])
        if res > 1e-12 * (1.0 + abs(p["C1"])):
            return _sol(Status.NO_SOLUTION, {**p, "a": a}, residuals=(res,),
                        note=f"a = {a!r} violates {rule}")
        return _sol(Status.SOLVED, {**p, "a": a, "B": p["C2"]}, ("A",), (res,))
    return solve


def _amplitude(p: dict, b: float, denom: float, target: float,
               shape: str | None = None) -> Callable[[dict], ConstraintSolution]:
    """The amplitude A with A*denom = target.  A family whose denom can
    vanish names its ansatz shape: there the amplitude stays free when the
    target vanishes too, and no member exists otherwise."""
    def solve(pins: dict) -> ConstraintSolution:
        if shape is not None and abs(denom) <= 1e-12:
            if abs(target) <= 1e-12:
                return _sol(Status.SOLVED, {**p, "B": b}, ("A",),
                            note="degenerate: the amplitude stays free")
            return _sol(Status.NO_SOLUTION, p,
                        note=f"the {shape} ansatz cannot carry the forcing")
        amp = target / denom
        return _sol(Status.SOLVED, {**p, "A": amp, "B": b},
                    residuals=(abs(amp * denom - target),))
    return solve


def _existence_rate(p: dict, b: float, gap: Callable[[float], float],
                    brackets: tuple[tuple[float, float], ...],
                    otherwise: Callable[[Callable[[float], float]], ConstraintSolution],
                    invert: bool = False, word: str = "rate"
                    ) -> Callable[[dict], ConstraintSolution]:
    """The rate a from its existence equation gap(r) = 0, with r = a, or
    r = 1/a when invert: the root in the first bracket that holds one, else
    otherwise(gap).  A pinned a is checked, not solved for."""
    def solve(pins: dict) -> ConstraintSolution:
        if "a" in pins:
            a = pins["a"]
            if invert and a == 0.0:
                raise ParameterDomainError(f"the {word} 1/a requires a != 0")
            r = 1.0 / a if invert else a
            res = abs(gap(r))
            if res > 1e-12 * (1.0 + abs(r)):
                return _sol(Status.TRIVIAL_ONLY, {**p, "a": a}, residuals=(res,),
                            note=f"the pinned {word} fails the existence "
                                 "equation; only y = 0 remains")
            return _sol(Status.SOLVED, {**p, "a": a, "B": b}, ("A",), (res,))
        for lo, hi in brackets:
            r = _root_in(gap, lo, hi)
            if r is not None:
                return _sol(Status.SOLVED, {**p, "a": 1.0 / r if invert else r, "B": b},
                            ("A",), (abs(gap(r)),))
        return otherwise(gap)
    return solve


def _unit_gain(p: dict) -> ConstraintSolution:
    res = abs(p["C1"] - 1.0)
    if res > 1e-12:
        return _sol(Status.NO_SOLUTION, p, residuals=(res,),
                    note="straight lines exist only for C1 = 1")
    return _sol(Status.SOLVED, {**p, "B": p["C2"]}, ("A",), (res,))


def _log_ratio(p: dict) -> ConstraintSolution:
    """Logarithms need ln|C| = C - 1, so they pin the delay ratio itself."""
    def q(cc: float) -> float:
        return math.log(abs(cc)) - cc + 1.0

    c = p["C"]
    if abs(q(c)) <= 1e-12:
        return _sol(Status.SOLVED, {**p, "B": c}, ("A",), (abs(q(c)),))
    try:
        star = hybrid_root(q, -1.0 / math.e + 1e-9, -1e-9)
    except (BracketNotFound, NonConvergence):
        return _sol(Status.NO_SOLUTION, p, note="no delay ratio satisfies ln|C| = C - 1")
    return _sol(Status.SOLVED, {"C": star, "B": star}, ("A",), (abs(q(star)),),
                note=(f"the case ratio C = {c!r} fails ln|C| = C - 1; "
                      f"the family exists at C = {star!r}"))


# ---------------------------------------------------------------------------
# the table: one record per catalog id


class _Case(ex.Record):
    """One catalog id.

    defaults lists the case constants; each check is (requirement, test,
    constant shown or None).  A case with a default f takes a function f,
    and free_delay says when the caller supplies the delay.  system builds
    the Dods from (constants, f, delay); generators gives the algebra's
    (xi, eta) pairs, named X1, X2, ... in order; k is the delay x- = k(x; B)
    of every family.  families(constants) maps each family's label, in
    catalog order, to its row (h, roles, solver, generator, notes): solver
    maps the pinned parameters to the ConstraintSolution, generator the
    solved parameters to (xi, eta).
    """

    info: CaseInfo
    defaults: Mapping[str, float] = {}
    checks: tuple = ()
    fn: str | None = None
    free_delay: Callable[[dict], bool] = lambda p: False
    system: Callable[[dict, ex.Expr | None, DelayRelation | None], Dods] | None = None
    generators: Callable[[dict], tuple] = lambda p: ()
    k: ex.Expr | None = None
    families: Callable[[dict], dict[str, tuple]] = lambda p: {}


# (xi, eta) of d_x, d_y, x d_y and y d_y
_DX, _DY, _XDY, _YDY = (_ONE, _ZERO), (_ZERO, _ONE), (_ZERO, _X), (_ZERO, _Y)
_K_CONST = ex.parse("x - B", ("x", "B"))
_K_SCALE = ex.parse("B*x", ("x", "B"))
_K_MOEBIUS = ex.parse("(x - B)/(1 + B*x)", ("x", "B"))
_C2_POSITIVE = ("C2 > 0", lambda p: p["C2"] > 0.0, "C2")
_C_POSITIVE = ("C > 0", lambda p: p["C"] > 0.0, "C")
_BOTH_SIGNS = ((1e-6, 10.0), (-10.0, -1e-6))

_CASES = {c.info.id: c for c in (
    _Case(CaseInfo("A2_1", "y' = f(x) (y - y-)/(x - x-)",
                   "x- = g(x), user supplied",
                   "f(x); defaults f = sin(x) + 2, delay constant(1)"),
          fn="sin(x) + 2", free_delay=lambda p: True,
          system=lambda p, f, g: _slope_system(g, factor=f),
          generators=lambda p: (_DY, _YDY)),
    _Case(CaseInfo("A2_3", "y' = (y - y-)/(x - x-) + f(x)",
                   "x- = g(x), user supplied",
                   "f(x) not identically zero; defaults f = 1, delay constant(1)"),
          fn="1", free_delay=lambda p: True,
          system=lambda p, f, g: _nonzero_forcing(_slope_system(g, f)),
          generators=lambda p: (_DY, _XDY)),
    _Case(CaseInfo("A3_1", "y' = (y - y-)/(x - x-) + C1",
                   "x - x- = C2 > 0",
                   "C1 (default 1), C2 (default 1)"),
          {"C1": 1.0, "C2": 1.0}, (_C2_POSITIVE,),
          system=lambda p, f, g: _slope_system(ConstantDelay(p["C2"]), ex.Num(p["C1"])),
          generators=lambda p: (_DY, _XDY, _DX), k=_K_CONST,
          families=lambda p: {"aX2+X3": (
              _parsed("(a/2)*x^2 + A", ("x", "a", "A")),
              {"a": Role.DETERMINED, "A": Role.FREE, "B": Role.DETERMINED},
              _slope_rate(p, p["C2"] / 2.0, "a*C2/2 = C1"),
              lambda m: (_ONE, _expr_with("a*x", {"a": m["a"]}, ("x", "y"))),
              "parabolas drifting at the forcing rate")}),
    _Case(CaseInfo("A3_3", "y' = (y - y-)/(x - x-) + C1 x^(a/(1-a)); for a = 1 the "
                   "forcing drops and the delay is free",
                   "x- = C2 x on x > 0 (a != 1); user supplied (a = 1)",
                   "a with 0 < |a| <= 1 (default 0.5), C1 (default 1), "
                   "C2 in (0, 1) (default 0.5)"),
          {"a": 0.5, "C1": 1.0, "C2": 0.5},
          (("0 < |a| <= 1", lambda p: 0.0 < abs(p["a"]) <= 1.0, "a"),
           ("C2 in (0, 1)", lambda p: p["a"] == 1.0 or 0.0 < p["C2"] < 1.0, "C2")),
          free_delay=lambda p: p["a"] == 1.0,
          system=lambda p, f, g: _slope_system(g) if p["a"] == 1.0 else _slope_system(
              scale_delay(p["C2"]),
              _expr_with("C1 * x^(a/(1 - a))", {"C1": p["C1"], "a": p["a"]})),
          generators=lambda p: (_DY, _XDY, _YDY if p["a"] == 1.0 else
                                (_expr_with("(1 - a)*x", {"a": p["a"]}), _Y)),
          k=_K_SCALE,
          families=lambda p: {} if p["a"] == 1.0 else {"X3": (
              _expr_with("A * x^p", {"p": 1.0 / (1.0 - p["a"])}, ("x", "A")),
              {"A": Role.DETERMINED, "B": Role.DETERMINED},
              _amplitude(p, p["C2"], _power_gap(1.0 / (1.0 - p["a"]), p["C2"]),
                         p["C1"], "power"),
              lambda m: (_expr_with("(1 - a)*x", {"a": p["a"]}), _Y),
              "pure powers matched to the power law forcing")}),
    _Case(CaseInfo("A3_5", "y' = (y - y-)/(x - x-) + C1 exp(x)",
                   "x - x- = C2 > 0",
                   "C1 (default 1), C2 (default 1)"),
          {"C1": 1.0, "C2": 1.0}, (_C2_POSITIVE,),
          system=lambda p, f, g: _slope_system(
              ConstantDelay(p["C2"]), _expr_with("C1 * exp(x)", {"C1": p["C1"]})),
          generators=lambda p: (_DY, _XDY, (_ONE, _Y)), k=_K_CONST,
          families=lambda p: {"X3": (
              _parsed("A*exp(x)", ("x", "A")),
              {"A": Role.DETERMINED, "B": Role.DETERMINED},
              _amplitude(p, p["C2"], p["C2"] - 1.0 + math.exp(-p["C2"]),
                         p["C1"] * p["C2"]),
              lambda m: (_ONE, _Y),
              "exponentials matched to the exponential forcing")}),
    _Case(CaseInfo("A3_7", "y' = (y - y-)/(x - x-) + C1 exp(b atan(x))/sqrt(1 + x^2)",
                   "x- = (x - C2)/(1 + C2 x) on x > -1/C2",
                   "b >= 0 (default 1), C1 (default 1), C2 > 0 (default 1)"),
          {"b": 1.0, "C1": 1.0, "C2": 1.0},
          (("b >= 0", lambda p: p["b"] >= 0.0, "b"), _C2_POSITIVE),
          system=lambda p, f, g: _slope_system(MoebiusDelay(p["C2"]), _expr_with(
              "C1 * exp(b*atan(x)) / sqrt(1 + x^2)", {"C1": p["C1"], "b": p["b"]})),
          generators=lambda p: (_DY, _XDY, (
              _parsed("1 + x^2"), _expr_with("(x + b)*y", {"b": p["b"]}, ("x", "y")))),
          k=_K_MOEBIUS,
          families=lambda p: {"X3": (
              _expr_with("A*sqrt(1 + x^2)*exp(b*atan(x))", {"b": p["b"]}, ("x", "A")),
              {"A": Role.DETERMINED, "B": Role.DETERMINED},
              _amplitude(p, p["C2"], _spiral_gap(p["b"], p["C2"]), p["C1"], "spiral"),
              lambda m: (_parsed("1 + x^2"),
                         _expr_with("(x + b)*y", {"b": p["b"]}, ("x", "y"))),
              "the projective orbit curves")}),
    _Case(CaseInfo("A3_11", "none: every equation admitting this algebra reduces to "
                   "an ordinary differential equation", "-", "-", admits_system=False)),
    _Case(CaseInfo("A3_13", "y' = C1 (y - y-)/(x - x-)",
                   "x - x- = C2 > 0",
                   "C1 != 0 (default 1), C2 (default 1)"),
          {"C1": 1.0, "C2": 1.0},
          (("C1 != 0", lambda p: p["C1"] != 0.0, None), _C2_POSITIVE),
          system=lambda p, f, g: _slope_system(ConstantDelay(p["C2"]),
                                               factor=ex.Num(p["C1"])),
          generators=lambda p: (_DX, _DY, _YDY), k=_K_CONST,
          families=lambda p: {
              "X1±X2": (_parsed("x + A", ("x", "A")),
                  {"A": Role.FREE, "B": Role.DETERMINED, "C1": Role.EXISTENCE},
                  lambda pins: _unit_gain(p), lambda m: (_ONE, _ONE),
                  "unit slope lines; the mirrored sign works identically"),
              "X1+aX3": (_parsed("A*exp(a*x)", ("x", "A", "a")),
                  {"a": Role.EXISTENCE, "A": Role.FREE, "B": Role.DETERMINED},
                  _existence_rate(
                      p, p["C2"], lambda a: _exp_gap(a, p["C2"], p["C1"]), _BOTH_SIGNS,
                      lambda gap: _sol(
                          Status.SOLVED, {**p, "a": 0.0, "B": p["C2"]}, ("A",),
                          (abs(gap(0.0)),),
                          "no nonzero rate satisfies the existence equation; "
                          "the family degenerates to constants")),
                  lambda m: (_ONE, _expr_with("a*y", {"a": m["a"]}, ("x", "y"))),
                  "exponentials whose rate solves a transcendental equation")}),
    _Case(CaseInfo("A3_14", "y' = (y - y-)/(x - x-) + C1",
                   "x- = C2 x on x > 0",
                   "C1 (default 1), C2 in (0, 1) (default 0.5)"),
          {"C1": 1.0, "C2": 0.5},
          (("C2 in (0, 1)", lambda p: 0.0 < p["C2"] < 1.0, "C2"),),
          system=lambda p, f, g: _slope_system(scale_delay(p["C2"]), ex.Num(p["C1"])),
          generators=lambda p: (_XDY, _DY, (_X, _Y)), k=_K_SCALE,
          families=lambda p: {"aX1+X3": (
              _parsed("a*x*ln(x) + A*x", ("x", "a", "A")),
              {"a": Role.DETERMINED, "A": Role.FREE, "B": Role.DETERMINED},
              _slope_rate(p, 1.0 + p["C2"] * math.log(p["C2"]) / (1.0 - p["C2"]),
                          "the slope constraint"),
              lambda m: (_X, _expr_with("a*x + y", {"a": m["a"]}, ("x", "y"))),
              "logarithmic spirals of the scaling group")}),
    _Case(CaseInfo("A3_15", "y' = (y - y-)/(x - x-) + f(x)",
                   "x- = g(x), user supplied",
                   "f(x); defaults f = x, delay constant(1)"),
          fn="x", free_delay=lambda p: True,
          system=lambda p, f, g: _slope_system(g, f),
          generators=lambda p: (_DY, _XDY)),
    _Case(CaseInfo("A4_5", "y' = (y - y-)/(x - x-)",
                   "x- = g(x), user supplied",
                   "defaults delay constant(1)"),
          free_delay=lambda p: True,
          system=lambda p, f, g: _slope_system(g),
          generators=lambda p: (_DY, _XDY, _YDY)),
    _Case(CaseInfo("A4_12", "y' = (y - y-)/(x - x-)",
                   "x - x- = C > 0",
                   "C (default 1)"),
          {"C": 1.0}, (_C_POSITIVE,),
          system=lambda p, f, g: _slope_system(ConstantDelay(p["C"])),
          generators=lambda p: (_DX, _XDY, _DY, _YDY), k=_K_CONST,
          families=lambda p: {
              "X1": (_parsed("A", ("x", "A")), {"A": Role.FREE, "B": Role.DETERMINED},
                  lambda pins: _sol(Status.SOLVED, {**p, "B": p["C"]}, ("A",)),
                  lambda m: _DX, "constants"),
              "X1±X2": (_parsed("x^2/2 + A", ("x", "A")),
                  {"A": Role.FREE, "B": Role.DETERMINED},
                  lambda pins: _sol(Status.NO_SOLUTION, p, residuals=(p["C"],), note=(
                      "the parabola ansatz needs a vanishing delay spacing, but "
                      f"the delay fixes B = {p['C']!r}")),
                  lambda m: (_ONE, _X),
                  "incompatible: two constraints pin B to different values"),
              "aX1+X4": (_parsed("A*exp(x/a)", ("x", "A", "a")),
                  {"a": Role.EXISTENCE, "A": Role.FREE, "B": Role.DETERMINED},
                  _existence_rate(
                      p, p["C"], lambda lam: _exp_gap(lam, p["C"]), _BOTH_SIGNS,
                      lambda gap: _sol(Status.TRIVIAL_ONLY, p, note=(
                          "the existence equation 1/a = (1 - exp(-C/a))/C has no "
                          "nonzero real solution; only y = 0 remains")),
                      invert=True),
                  lambda m: (_expr_with("a", {"a": m["a"]}), _Y),
                  "the exponential rate equation has no real nonzero root")}),
    _Case(CaseInfo("A4_14", "y' = (y - y-)/(x - x-)",
                   "x- = (x - C)/(1 + C x) on x > -1/C",
                   "C > 0 (default 1)"),
          {"C": 1.0}, (_C_POSITIVE,),
          system=lambda p, f, g: _slope_system(MoebiusDelay(p["C"])),
          generators=lambda p: (_DY, _XDY, _YDY,
                                (_parsed("1 + x^2"), _parsed("x*y", ("x", "y")))),
          k=_K_MOEBIUS,
          families=lambda p: {"aX3+X4": (
              _parsed("A*sqrt(1 + x^2)*exp(a*atan(x))", ("x", "A", "a")),
              {"a": Role.EXISTENCE, "A": Role.FREE, "B": Role.DETERMINED},
              _existence_rate(
                  p, p["C"], lambda a: _spiral_gap(a, p["C"]), ((-10.0, 10.0),),
                  lambda gap: _sol(Status.TRIVIAL_ONLY, p, note=(
                      "the spiral rate equation has no real solution; "
                      "only y = 0 remains"))),
              lambda m: (_parsed("1 + x^2"),
                         _expr_with("(a + x)*y", {"a": m["a"]}, ("x", "y"))),
              "the projective spiral rate equation has no real root")}),
    _Case(CaseInfo("A4_21", "y' = (y - y-)/(x - x-)",
                   "x- = C x on x > 0",
                   "C with 0 < |C| < 1 (default 0.5)"),
          {"C": 0.5}, (("0 < |C| < 1", lambda p: 0.0 < abs(p["C"]) < 1.0, "C"),),
          system=lambda p, f, g: _slope_system(scale_delay(p["C"]),
                                               domain=(0.0, math.inf)),
          generators=lambda p: (_DY, (_X, _Y), _XDY, (_X, _ZERO)), k=_K_SCALE,
          families=lambda p: {
              "Y1": (_parsed("A", ("x", "A")), {"A": Role.FREE, "B": Role.DETERMINED},
                  lambda pins: _sol(Status.SOLVED, {**p, "B": p["C"]}, ("A",)),
                  lambda m: (_X, _ZERO), "constants"),
              "Y1±Y2": (_parsed("ln(abs(x)) + A", ("x", "A")),
                  {"A": Role.FREE, "C": Role.EXISTENCE, "B": Role.DETERMINED},
                  lambda pins: _log_ratio(p), lambda m: (_X, _ONE),
                  "logarithms; they pin the delay ratio itself"),
              "aY1+Y4": (_parsed("A*x^(1/a)", ("x", "A", "a")),
                  {"a": Role.EXISTENCE, "A": Role.FREE, "B": Role.DETERMINED},
                  _existence_rate(
                      p, p["C"], lambda pw: _power_gap(pw, p["C"]),
                      ((1e-6, 10.0),) if p["C"] > 0.0 else (),
                      # for C < 0 only integer exponents stay real valued
                      # at xm = C x < 0; pw = 1 satisfies the equation
                      # identically
                      lambda gap: (
                          _sol(Status.TRIVIAL_ONLY, p, note=(
                              "no positive exponent satisfies the existence equation"))
                          if p["C"] > 0.0 else
                          _sol(Status.SOLVED, {**p, "a": 1.0, "B": p["C"]}, ("A",),
                               (abs(gap(1.0)),), note="linear branch")),
                      invert=True, word="exponent"),
                  lambda m: (_expr_with("a*x", {"a": m["a"]}), _Y),
                  "power laws of the scaling group")}),
)}

CASE_IDS = tuple(_CASES)


def list_cases() -> tuple[CaseInfo, ...]:
    return tuple(c.info for c in _CASES.values())


def resolve_case(case: CatalogCase | str) -> CatalogCase:
    """Fill defaults and validate parameter domains."""
    if isinstance(case, str):
        case = CatalogCase(case)
    cid = case.id
    if cid not in CASE_IDS:
        raise ParameterDomainError(
            f"unknown case {cid!r}; known cases: {', '.join(CASE_IDS)}")
    spec = _CASES[cid]
    if not spec.info.admits_system:
        raise NoDodsError(
            f"{cid} admits no delay system: the algebra forces the equation "
            "to collapse to an ordinary differential equation")

    params = dict(spec.defaults)
    for key, value in dict(case.params or {}).items():
        if key not in params:
            raise ParameterDomainError(
                f"{cid} takes parameters {sorted(params)}, not {key!r}")
        params[key] = float(value)
        if not math.isfinite(params[key]):
            raise ParameterDomainError(f"{cid} needs a finite {key}, got {params[key]!r}")
    for requirement, holds, shown in spec.checks:
        if not holds(params):
            got = f", got {params[shown]!r}" if shown else ""
            raise ParameterDomainError(f"{cid} needs {requirement}{got}")

    f: ex.Expr | None = None
    if spec.fn is not None:
        f = ex.as_expr(case.f, ("x",)) if case.f is not None else _parsed(spec.fn)
        _check_defined(ex.fold(f))
    elif case.f is not None:
        raise ParameterDomainError(f"{cid} does not take a function f")

    relation: DelayRelation | None = None
    if spec.free_delay(params):
        raw = case.delay if case.delay is not None else ConstantDelay(1.0)
        relation = parse_delay_spec(raw) if isinstance(raw, str) else raw
    elif case.delay is not None:
        raise ParameterDomainError(
            f"{cid} determines its own delay relation; do not pass one")

    return CatalogCase(cid, params, f, relation)


def families(case: CatalogCase | str) -> tuple[InvariantFamily, ...]:
    """The case's one dimensional subalgebras that admit an invariant
    ansatz, in catalog order.  Cases whose symmetries all act vertically
    (or trivially on x) have no reduction and return an empty tuple."""
    return _families(resolve_case(case))


def _families(rcase: CatalogCase) -> tuple[InvariantFamily, ...]:
    spec = _CASES[rcase.id]
    p = dict(rcase.params or {})
    return tuple(InvariantFamily(rcase.id, label, p, h, spec.k, roles, notes)
                 for label, (h, roles, _, _, notes) in spec.families(p).items())


def catalog(case: CatalogCase | str) -> CatalogEntry:
    """Instantiate a catalog case: the system, its symmetry generators, and
    its invariant solution families."""
    from . import symmetry as _symmetry

    rcase = resolve_case(case)
    spec = _CASES[rcase.id]
    p = dict(rcase.params or {})
    d = spec.system(p, rcase.f, rcase.delay)
    validate_beta(d)
    algebra = tuple(_symmetry.VectorField(xi, eta, name=f"X{i}")
                    for i, (xi, eta) in enumerate(spec.generators(p), start=1))
    return CatalogEntry(rcase, d, algebra, _families(rcase), _window_for(d.domain))
