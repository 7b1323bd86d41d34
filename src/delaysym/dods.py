"""Delay ordinary differential systems.

A DODS couples a first order delay differential equation with an explicit
delay relation:

    dy/dx = f(x, y, y-),      x- = g(x),  g(x) < x,

where y- means y(x-).  The linear right hand side is
alpha(x)*y + beta(x)*y- + gamma(x); beta must not vanish identically or the
delay term disappears and the system degenerates to an ODE.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from . import expr as ex
from .delay import (ConstantDelay, DelayRelation, MoebiusDelay,
                    default_domain, parse_delay_spec, scale_delay)
from .errors import NoDodsError, ParameterDomainError, SchemeMismatch

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
]

_Y = ex.Var("y")
_YM = ex.Var("ym")
_MANIFOLD_VARS = ("x", "y", "xm", "ym")


@dataclass(frozen=True)
class LinearRhs:
    """dy/dx = alpha(x)*y + beta(x)*y- + gamma(x)."""

    alpha: ex.Expr
    beta: ex.Expr
    gamma: ex.Expr

    def __post_init__(self) -> None:
        for name, e in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            extra = ex.variables_of(e) - {"x"}
            if extra:
                raise ParameterDomainError(
                    f"{name} may only depend on x, found {sorted(extra)}")

    def as_expr(self) -> ex.Expr:
        return ex.fold(ex.Binary(
            "+",
            ex.Binary("+", ex.Binary("*", self.alpha, _Y), ex.Binary("*", self.beta, _YM)),
            self.gamma,
        ))


@dataclass(frozen=True)
class GeneralRhs:
    """dy/dx = f(x, y, y-)."""

    f: ex.Expr

    def __post_init__(self) -> None:
        extra = ex.variables_of(self.f) - {"x", "y", "ym"}
        if extra:
            raise ParameterDomainError(
                f"right hand side may only use x, y, ym, found {sorted(extra)}")

    def as_expr(self) -> ex.Expr:
        return self.f


@dataclass(frozen=True)
class Dods:
    """A delay equation together with its delay relation.

    rhs_manifold, when present, writes the right hand side as a function of
    the four manifold coordinates (x, y, xm, ym) without substituting
    xm = g(x).  Prolongations differentiate it with respect to each
    coordinate separately, which is not recoverable from the substituted
    coefficients.
    """

    rhs: Union[LinearRhs, GeneralRhs]
    delay: DelayRelation
    domain: tuple[float, float] = (-math.inf, math.inf)
    rhs_manifold: Optional[ex.Expr] = None

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not lo < hi:
            raise ParameterDomainError(f"empty domain ({lo!r}, {hi!r})")
        if self.rhs_manifold is not None:
            extra = ex.variables_of(self.rhs_manifold) - {"x", "y", "xm", "ym"}
            if extra:
                raise ParameterDomainError(
                    f"manifold form may only use x, y, xm, ym, found {sorted(extra)}")

    __getstate__ = ex.fields_state

    # Compiled forms of the trees, built on first use and kept with the
    # system; nothing compiles while a system is only built or printed.

    @functools.cached_property
    def rhs_fn(self) -> Callable[[float, float, float], float]:
        """f(x, y, ym) compiled; for a linear right hand side the order of
        operations is alpha*y + beta*ym + gamma."""
        r = self.rhs
        if isinstance(r, LinearRhs):
            tree = ex.Binary("+", ex.Binary("+", ex.Binary("*", r.alpha, _Y),
                                            ex.Binary("*", r.beta, _YM)), r.gamma)
        else:
            tree = r.f
        return ex.compile(tree, ("x", "y", "ym"))

    @functools.cached_property
    def coefficient_fns(self) -> tuple[Callable[[float], float], ...]:
        """alpha, beta and gamma of a linear right hand side, compiled."""
        if not isinstance(self.rhs, LinearRhs):
            raise SchemeMismatch("only a linear right hand side has coefficients")
        r = self.rhs
        return tuple(ex.compile(c, ("x",)) for c in (r.alpha, r.beta, r.gamma))

    @functools.cached_property
    def manifold_partial_fns(self) -> tuple[Callable[[float, float, float, float], float], ...]:
        """Partial derivatives of the manifold form with respect to x, y, xm
        and ym, each compiled as a function of (x, y, xm, ym).  Without a
        manifold form the substituted right hand side stands in, with no xm
        dependence left."""
        m = self.rhs_manifold if self.rhs_manifold is not None else self.rhs.as_expr()
        return tuple(ex.compile(ex.fold(ex.differentiate(m, v)), _MANIFOLD_VARS)
                     for v in _MANIFOLD_VARS)

    def rhs_value(self, x: float, y: float, ym: float) -> float:
        return self.rhs_fn(x, y, ym)

    def residual(self, x: float, y: float, xm: float, ym: float, ydot: float
                 ) -> tuple[float, float]:
        """(ydot - f(x, y, ym), xm - g(x)).

        The first component is affine in (y, ym, ydot) for a linear right
        hand side; the second vanishes exactly on the delay manifold.
        """
        return (ydot - self.rhs_value(x, y, ym),
                xm - self.delay.delayed_point(x))

    def contains(self, x: float) -> bool:
        lo, hi = self.domain
        return lo < x < hi


def homogenized(d: Dods) -> Dods:
    """The same system with the forcing term removed (gamma = 0)."""
    if not isinstance(d.rhs, LinearRhs):
        raise SchemeMismatch("only a linear right hand side has a homogeneous part")
    manifold = None
    if d.rhs_manifold is not None:
        manifold = ex.fold(ex.Binary("-", d.rhs_manifold, d.rhs.gamma))
    return Dods(LinearRhs(d.rhs.alpha, d.rhs.beta, ex.Num(0.0)), d.delay, d.domain,
                manifold)


@dataclass(frozen=True)
class InitialCondition:
    """History function phi on the primer interval [x_minus1, x0]."""

    phi: ex.Expr
    x_minus1: float
    x0: float

    def __post_init__(self) -> None:
        if not self.x_minus1 < self.x0:
            raise ParameterDomainError(
                f"history interval is empty: [{self.x_minus1!r}, {self.x0!r}]")
        extra = ex.variables_of(self.phi) - {"x"}
        if extra:
            raise ParameterDomainError(f"phi may only depend on x, found {sorted(extra)}")


def initial_condition(phi: "ex.Expr | str", relation: DelayRelation, x0: float) -> InitialCondition:
    """Build the history record with x_minus1 = g(x0)."""
    return InitialCondition(ex.as_expr(phi, ("x",)), relation.delayed_point(x0), x0)


def validate_beta(d: Dods, window: tuple[float, float], samples: int = 20) -> None:
    """Reject a linear system whose delay coefficient vanishes identically
    on the sampling window."""
    if not isinstance(d.rhs, LinearRhs):
        return
    lo, hi = window
    seen = 0.0
    for i in range(samples):
        x = lo + (hi - lo) * (i + 0.5) / samples
        try:
            seen = max(seen, abs(ex.evaluate(d.rhs.beta, {"x": x})))
        except Exception:
            continue
    if seen <= 1e-12:
        raise ParameterDomainError(
            "delay coefficient beta vanishes identically; the system is an ODE")


# ---------------------------------------------------------------------------
# plain text system files


def _unquote(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] in "\"'" and raw[-1] == raw[0]:
        return raw[1:-1]
    return raw


def _parse_domain(raw: str) -> tuple[float, float]:
    raw = raw.strip()
    if not (raw.startswith("(") and raw.endswith(")")):
        raise ParameterDomainError(f"domain must look like (lo, hi), got {raw!r}")
    parts = raw[1:-1].split(",")
    if len(parts) != 2:
        raise ParameterDomainError(f"domain must have two bounds, got {raw!r}")
    return float(parts[0]), float(parts[1])


def load_spec(text: str) -> tuple[Dods, Optional[InitialCondition]]:
    """Parse a key = value system file.

    Recognized keys: rhs.kind (linear or general), alpha, beta, gamma, f,
    delay, domain, phi, x0.  Lines starting with # and blank lines are
    ignored.  Returns the system and, when phi and x0 are present, the
    initial condition.
    """
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterDomainError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        fields[key.strip()] = value.strip()

    kind = _unquote(fields.get("rhs.kind", "linear")).lower()
    if "delay" not in fields:
        raise ParameterDomainError("system file is missing the delay key")
    relation = parse_delay_spec(_unquote(fields["delay"]))

    rhs: Union[LinearRhs, GeneralRhs]
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

    init: Optional[InitialCondition] = None
    if "phi" in fields and "x0" in fields:
        init = initial_condition(_unquote(fields["phi"]), relation, float(fields["x0"]))
    return d, init


# ---------------------------------------------------------------------------
# the catalog of invariant systems
#
# Each entry realizes a low dimensional symmetry algebra by a linear DODS.
# The slope (y - ym)/(x - xm) is the common building block: it is invariant
# under simultaneous translations and scalings of both points.


_SLOPE = ex.parse("(y - ym)/(x - xm)", ("x", "y", "xm", "ym"))
_ZERO = ex.Num(0.0)
_ONE = ex.Num(1.0)


def _expr_with(text: str, values: Mapping[str, float],
               variables: tuple[str, ...] = ("x",)) -> ex.Expr:
    e = ex.parse(text, tuple(variables) + tuple(values))
    return ex.fold(ex.substitute(e, {k: ex.Num(float(v)) for k, v in values.items()}))


def _neg(e: ex.Expr) -> ex.Expr:
    return ex.fold(ex.Unary("neg", e))


def _slope_coeffs(relation: DelayRelation,
                  factor: Optional[ex.Expr] = None) -> tuple[ex.Expr, ex.Expr]:
    """(alpha, beta) for factor(x) * (y - ym)/(x - g(x))."""
    inv = ex.fold(ex.Binary("/", factor if factor is not None else _ONE,
                            relation.gap_expr()))
    return inv, _neg(inv)


def _manifold(gamma: Optional[ex.Expr] = None,
              factor: Optional[ex.Expr] = None) -> ex.Expr:
    m = _SLOPE if factor is None else ex.Binary("*", factor, _SLOPE)
    if gamma is not None:
        m = ex.Binary("+", m, gamma)
    return ex.fold(m)


def _window_for(domain: tuple[float, float]) -> tuple[float, float]:
    lo, hi = domain
    if math.isinf(lo) and math.isinf(hi):
        return (-1.0, 3.0)
    if math.isinf(hi):
        return (lo + 0.4, lo + 3.9)
    if math.isinf(lo):
        return (hi - 3.9, hi - 0.4)
    return (lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))


@dataclass(frozen=True)
class CaseInfo:
    """One line of the catalog listing."""

    id: str
    equation: str
    delay: str
    parameters: str
    admits_system: bool = True


_CASE_INFOS = (
    CaseInfo("A2_1", "y' = f(x) (y - y-)/(x - x-)",
             "x- = g(x), user supplied",
             "f(x); defaults f = sin(x) + 2, delay constant(1)"),
    CaseInfo("A2_3", "y' = (y - y-)/(x - x-) + f(x)",
             "x- = g(x), user supplied",
             "f(x) not identically zero; defaults f = 1, delay constant(1)"),
    CaseInfo("A3_1", "y' = (y - y-)/(x - x-) + C1",
             "x - x- = C2 > 0",
             "C1 (default 1), C2 (default 1)"),
    CaseInfo("A3_3", "y' = (y - y-)/(x - x-) + C1 x^(a/(1-a)); for a = 1 the "
             "forcing drops and the delay is free",
             "x- = C2 x on x > 0 (a != 1); user supplied (a = 1)",
             "a with 0 < |a| <= 1 (default 0.5), C1 (default 1), "
             "C2 in (0, 1) (default 0.5)"),
    CaseInfo("A3_5", "y' = (y - y-)/(x - x-) + C1 exp(x)",
             "x - x- = C2 > 0",
             "C1 (default 1), C2 (default 1)"),
    CaseInfo("A3_7", "y' = (y - y-)/(x - x-) + C1 exp(b atan(x))/sqrt(1 + x^2)",
             "x- = (x - C2)/(1 + C2 x) on x > -1/C2",
             "b >= 0 (default 1), C1 (default 1), C2 > 0 (default 1)"),
    CaseInfo("A3_11", "none: every equation admitting this algebra reduces to "
             "an ordinary differential equation", "-", "-", admits_system=False),
    CaseInfo("A3_13", "y' = C1 (y - y-)/(x - x-)",
             "x - x- = C2 > 0",
             "C1 != 0 (default 1), C2 (default 1)"),
    CaseInfo("A3_14", "y' = (y - y-)/(x - x-) + C1",
             "x- = C2 x on x > 0",
             "C1 (default 1), C2 in (0, 1) (default 0.5)"),
    CaseInfo("A3_15", "y' = (y - y-)/(x - x-) + f(x)",
             "x- = g(x), user supplied",
             "f(x); defaults f = x, delay constant(1)"),
    CaseInfo("A4_5", "y' = (y - y-)/(x - x-)",
             "x- = g(x), user supplied",
             "defaults delay constant(1)"),
    CaseInfo("A4_12", "y' = (y - y-)/(x - x-)",
             "x - x- = C > 0",
             "C (default 1)"),
    CaseInfo("A4_14", "y' = (y - y-)/(x - x-)",
             "x- = (x - C)/(1 + C x) on x > -1/C",
             "C > 0 (default 1)"),
    CaseInfo("A4_21", "y' = (y - y-)/(x - x-)",
             "x- = C x on x > 0",
             "C with 0 < |C| < 1 (default 0.5)"),
)

CASE_IDS = tuple(info.id for info in _CASE_INFOS)


def list_cases() -> tuple[CaseInfo, ...]:
    return _CASE_INFOS


@dataclass(frozen=True)
class CatalogCase:
    """A catalog id plus whatever the case leaves free: numeric parameters,
    an arbitrary function f, an arbitrary delay relation."""

    id: str
    params: Optional[Mapping[str, float]] = None
    f: Union[ex.Expr, str, None] = None
    delay: Union[DelayRelation, str, None] = None


@dataclass(frozen=True)
class CatalogEntry:
    case: CatalogCase
    dods: Dods
    algebra: tuple
    families: tuple
    window: tuple[float, float]


_NUMERIC_DEFAULTS: dict[str, dict[str, float]] = {
    "A2_1": {},
    "A2_3": {},
    "A3_1": {"C1": 1.0, "C2": 1.0},
    "A3_3": {"a": 0.5, "C1": 1.0, "C2": 0.5},
    "A3_5": {"C1": 1.0, "C2": 1.0},
    "A3_7": {"b": 1.0, "C1": 1.0, "C2": 1.0},
    "A3_13": {"C1": 1.0, "C2": 1.0},
    "A3_14": {"C1": 1.0, "C2": 0.5},
    "A3_15": {},
    "A4_5": {},
    "A4_12": {"C": 1.0},
    "A4_14": {"C": 1.0},
    "A4_21": {"C": 0.5},
}

_FN_DEFAULTS = {"A2_1": "sin(x) + 2", "A2_3": "1", "A3_15": "x"}

# cases whose delay relation is not pinned down by the algebra
_FREE_DELAY = {"A2_1", "A2_3", "A3_15", "A4_5"}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterDomainError(message)


def resolve_case(case: Union[CatalogCase, str]) -> CatalogCase:
    """Fill defaults and validate parameter domains."""
    if isinstance(case, str):
        case = CatalogCase(case)
    cid = case.id
    if cid not in CASE_IDS:
        raise ParameterDomainError(
            f"unknown case {cid!r}; known cases: {', '.join(CASE_IDS)}")
    if cid == "A3_11":
        raise NoDodsError(
            "A3_11 admits no delay system: the algebra forces the equation "
            "to collapse to an ordinary differential equation")

    params = dict(_NUMERIC_DEFAULTS[cid])
    for key, value in dict(case.params or {}).items():
        if key not in params:
            raise ParameterDomainError(
                f"{cid} takes parameters {sorted(params)}, not {key!r}")
        params[key] = float(value)

    if cid == "A3_1" or cid == "A3_5":
        _require(params["C2"] > 0.0, f"{cid} needs C2 > 0, got {params['C2']!r}")
    elif cid == "A3_3":
        a = params["a"]
        _require(0.0 < abs(a) <= 1.0, f"A3_3 needs 0 < |a| <= 1, got {a!r}")
        if a != 1.0:
            _require(0.0 < params["C2"] < 1.0,
                     f"A3_3 needs C2 in (0, 1), got {params['C2']!r}")
    elif cid == "A3_7":
        _require(params["b"] >= 0.0, f"A3_7 needs b >= 0, got {params['b']!r}")
        _require(params["C2"] > 0.0, f"A3_7 needs C2 > 0, got {params['C2']!r}")
    elif cid == "A3_13":
        _require(params["C1"] != 0.0, "A3_13 needs C1 != 0")
        _require(params["C2"] > 0.0, f"A3_13 needs C2 > 0, got {params['C2']!r}")
    elif cid == "A3_14":
        _require(0.0 < params["C2"] < 1.0,
                 f"A3_14 needs C2 in (0, 1), got {params['C2']!r}")
    elif cid == "A4_12" or cid == "A4_14":
        _require(params["C"] > 0.0, f"{cid} needs C > 0, got {params['C']!r}")
    elif cid == "A4_21":
        _require(0.0 < abs(params["C"]) < 1.0,
                 f"A4_21 needs 0 < |C| < 1, got {params['C']!r}")

    f: Optional[ex.Expr] = None
    if cid in _FN_DEFAULTS:
        f = ex.as_expr(case.f if case.f is not None else _FN_DEFAULTS[cid], ("x",))
    elif case.f is not None:
        raise ParameterDomainError(f"{cid} does not take a function f")

    relation: Optional[DelayRelation] = None
    free_delay = cid in _FREE_DELAY or (cid == "A3_3" and params["a"] == 1.0)
    if free_delay:
        raw = case.delay if case.delay is not None else ConstantDelay(1.0)
        relation = parse_delay_spec(raw) if isinstance(raw, str) else raw
    elif case.delay is not None:
        raise ParameterDomainError(
            f"{cid} determines its own delay relation; do not pass one")

    return CatalogCase(cid, params, f, relation)


def _build_system(case: CatalogCase) -> tuple[
        Dods, tuple[tuple[ex.Expr, ex.Expr, str], ...], tuple[float, float]]:
    cid = case.id
    p = dict(case.params or {})
    x_var = ex.Var("x")
    y_var = ex.Var("y")

    def d_y(name: str) -> tuple[ex.Expr, ex.Expr, str]:
        return (_ZERO, _ONE, name)

    def xd_y(name: str) -> tuple[ex.Expr, ex.Expr, str]:
        return (_ZERO, x_var, name)

    def yd_y(name: str) -> tuple[ex.Expr, ex.Expr, str]:
        return (_ZERO, y_var, name)

    if cid == "A2_1":
        alpha, beta = _slope_coeffs(case.delay, case.f)
        d = Dods(LinearRhs(alpha, beta, _ZERO), case.delay,
                 default_domain(case.delay), _manifold(factor=case.f))
        return d, (d_y("X1"), yd_y("X2")), _window_for(d.domain)

    if cid == "A2_3" or cid == "A3_15":
        alpha, beta = _slope_coeffs(case.delay)
        d = Dods(LinearRhs(alpha, beta, case.f), case.delay,
                 default_domain(case.delay), _manifold(case.f))
        window = _window_for(d.domain)
        if cid == "A2_3":
            top = max(abs(ex.evaluate(case.f, {"x": window[0] + (window[1] - window[0])
                                               * (i + 0.5) / 20})) for i in range(20))
            _require(top > 1e-12,
                     "A2_3 needs f not identically zero; A2_1 covers the "
                     "homogeneous equation")
        return d, (d_y("X1"), xd_y("X2")), window

    if cid == "A3_1":
        relation = ConstantDelay(p["C2"])
        alpha, beta = _slope_coeffs(relation)
        gamma = ex.Num(p["C1"])
        d = Dods(LinearRhs(alpha, beta, gamma), relation,
                 default_domain(relation), _manifold(gamma))
        return d, (d_y("X1"), xd_y("X2"), (_ONE, _ZERO, "X3")), _window_for(d.domain)

    if cid == "A3_3":
        if p["a"] == 1.0:
            alpha, beta = _slope_coeffs(case.delay)
            d = Dods(LinearRhs(alpha, beta, _ZERO), case.delay,
                     default_domain(case.delay), _manifold())
            return d, (d_y("X1"), xd_y("X2"), yd_y("X3")), _window_for(d.domain)
        relation = scale_delay(p["C2"])
        alpha, beta = _slope_coeffs(relation)
        gamma = _expr_with("C1 * x^(a/(1 - a))", {"C1": p["C1"], "a": p["a"]})
        d = Dods(LinearRhs(alpha, beta, gamma), relation, (0.0, math.inf),
                 _manifold(gamma))
        x3 = (_expr_with("(1 - a)*x", {"a": p["a"]}), y_var, "X3")
        return d, (d_y("X1"), xd_y("X2"), x3), _window_for(d.domain)

    if cid == "A3_5":
        relation = ConstantDelay(p["C2"])
        alpha, beta = _slope_coeffs(relation)
        gamma = _expr_with("C1 * exp(x)", {"C1": p["C1"]})
        d = Dods(LinearRhs(alpha, beta, gamma), relation,
                 default_domain(relation), _manifold(gamma))
        return d, (d_y("X1"), xd_y("X2"), (_ONE, y_var, "X3")), _window_for(d.domain)

    if cid == "A3_7":
        relation = MoebiusDelay(p["C2"])
        alpha, beta = _slope_coeffs(relation)
        gamma = _expr_with("C1 * exp(b*atan(x)) / sqrt(1 + x^2)",
                           {"C1": p["C1"], "b": p["b"]})
        d = Dods(LinearRhs(alpha, beta, gamma), relation,
                 default_domain(relation), _manifold(gamma))
        x3 = (ex.parse("1 + x^2", ("x",)),
              _expr_with("(x + b)*y", {"b": p["b"]}, ("x", "y")), "X3")
        return d, (d_y("X1"), xd_y("X2"), x3), _window_for(d.domain)

    if cid == "A3_13":
        relation = ConstantDelay(p["C2"])
        factor = ex.Num(p["C1"])
        alpha, beta = _slope_coeffs(relation, factor)
        d = Dods(LinearRhs(alpha, beta, _ZERO), relation,
                 default_domain(relation), _manifold(factor=factor))
        return d, ((_ONE, _ZERO, "X1"), d_y("X2"), yd_y("X3")), _window_for(d.domain)

    if cid == "A3_14":
        relation = scale_delay(p["C2"])
        alpha, beta = _slope_coeffs(relation)
        gamma = ex.Num(p["C1"])
        d = Dods(LinearRhs(alpha, beta, gamma), relation, (0.0, math.inf),
                 _manifold(gamma))
        return d, (xd_y("X1"), d_y("X2"), (x_var, y_var, "X3")), _window_for(d.domain)

    if cid == "A4_5":
        alpha, beta = _slope_coeffs(case.delay)
        d = Dods(LinearRhs(alpha, beta, _ZERO), case.delay,
                 default_domain(case.delay), _manifold())
        return d, (d_y("X1"), xd_y("X2"), yd_y("X3")), _window_for(d.domain)

    if cid == "A4_12":
        relation = ConstantDelay(p["C"])
        alpha, beta = _slope_coeffs(relation)
        d = Dods(LinearRhs(alpha, beta, _ZERO), relation,
                 default_domain(relation), _manifold())
        return d, ((_ONE, _ZERO, "X1"), xd_y("X2"), d_y("X3"), yd_y("X4")), \
            _window_for(d.domain)

    if cid == "A4_14":
        relation = MoebiusDelay(p["C"])
        alpha, beta = _slope_coeffs(relation)
        d = Dods(LinearRhs(alpha, beta, _ZERO), relation,
                 default_domain(relation), _manifold())
        x4 = (ex.parse("1 + x^2", ("x",)), ex.parse("x*y", ("x", "y")), "X4")
        return d, (d_y("X1"), xd_y("X2"), yd_y("X3"), x4), _window_for(d.domain)

    if cid == "A4_21":
        relation = scale_delay(p["C"])
        alpha, beta = _slope_coeffs(relation)
        d = Dods(LinearRhs(alpha, beta, _ZERO), relation, (0.0, math.inf),
                 _manifold())
        return d, (d_y("X1"), (x_var, y_var, "X2"), xd_y("X3"),
                   (x_var, _ZERO, "X4")), _window_for(d.domain)

    raise ParameterDomainError(f"unknown case {cid!r}")


def catalog(case: Union[CatalogCase, str]) -> CatalogEntry:
    """Instantiate a catalog case: the system, its symmetry generators, and
    its invariant solution families."""
    from . import reduction as _reduction
    from . import symmetry as _symmetry

    rcase = resolve_case(case)
    d, fields, window = _build_system(rcase)
    validate_beta(d, window)
    algebra = tuple(_symmetry.VectorField(xi, eta, name=name)
                    for xi, eta, name in fields)
    families = tuple(_reduction.families(rcase))
    return CatalogEntry(rcase, d, algebra, families, window)
