"""Delay relations x- = g(x) and the meshes they generate.

A relation is valid at x when g(x) < x there.  Advancing inverts g: the
forward point of x is the unique x+ with g(x+) = x.  A mesh is the increasing
chain x_-1 < x_0 < ... < x_N with g(x_{n+1}) = x_n used by the method of
steps.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections.abc import Sequence

from . import expr as ex
from .errors import DomainError, NoForwardPoint, NotMonotone, ParameterDomainError

__all__ = [
    "DelayRelation",
    "ConstantDelay",
    "AffineDelay",
    "QScaleDelay",
    "MoebiusDelay",
    "GeneralDelay",
    "Mesh",
    "build_mesh",
    "closed_form_point",
    "parse_delay_spec",
    "scale_delay",
]

_X = ex.Var("x")
_GUARD = 1e-12


class DelayRelation(ex.Record):
    kind = None  # spec_string's kind(field, ...), unannotated: Record makes annotations fields

    def delayed_point(self, x: float) -> float:
        raise NotImplementedError

    def delayed_points(self, xs: Sequence[float]) -> list[float]:
        """[delayed_point(x) for x in xs], bit for bit, or the first error it raises."""
        return list(map(self.delayed_point, xs))

    def advance(self, x: float) -> float:
        raise NotImplementedError

    def as_expr(self) -> ex.Expr:
        """g as an expression in x."""
        raise NotImplementedError

    def derivative(self, x: float) -> float:
        """g'(x), used by prolongations."""
        raise NotImplementedError

    def gap_expr(self) -> ex.Expr:
        """x - g(x) as an expression in x."""
        return ex.fold(ex.Binary("-", _X, self.as_expr()))

    def affine_parameters(self) -> tuple[float, float] | None:
        """(q, tau) when g(x) = q*x - tau, else None."""
        return None

    def default_domain(self) -> tuple[float, float]:
        """Largest open interval on which the relation actually delays,
        i.e. where the gap x - g(x) stays positive.  A general relation
        cannot tell, so it claims the whole line."""
        return (-math.inf, math.inf)

    def spec_string(self) -> str:
        if self.kind is None:
            raise NotImplementedError
        return f"{self.kind}({', '.join(map(repr, self._values()))})"


class _Affine(DelayRelation):
    """x- = q*x - tau, from the q and tau of a subclass: a field, or a class
    constant where the relation fixes it."""

    def advance(self, x: float) -> float:
        return (x + self.tau) / self.q

    def as_expr(self) -> ex.Expr:
        return ex.fold(ex.Binary("-", ex.Binary("*", ex.Num(self.q), _X), ex.Num(self.tau)))

    def derivative(self, x: float) -> float:
        return self.q

    def affine_parameters(self) -> tuple[float, float]:
        return self.q, self.tau


class ConstantDelay(_Affine):
    kind = "constant"
    tau: float
    q = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < math.inf:
            raise ParameterDomainError(f"constant delay needs a finite tau > 0, got {self.tau!r}")

    def delayed_point(self, x: float) -> float:
        return x - self.tau

    def gap_expr(self) -> ex.Expr:
        return ex.Num(self.tau)


class AffineDelay(_Affine):
    """x- = q*x - tau with q > 0.  Valid where (q - 1)*x < tau."""

    kind = "affine"
    q: float
    tau: float

    def __post_init__(self) -> None:
        if not 0.0 < self.q < math.inf:
            raise ParameterDomainError(f"affine delay needs a finite q > 0, got {self.q!r}")
        if not math.isfinite(self.tau):
            raise ParameterDomainError(f"affine delay needs a finite tau, got {self.tau!r}")
        if self.q == 1.0 and not self.tau > 0.0:
            raise ParameterDomainError(f"affine delay with q = 1 needs tau > 0, got {self.tau!r}")

    def delayed_point(self, x: float) -> float:
        xm = self.q * x - self.tau
        if not xm < x:
            raise DomainError(
                f"affine relation is not a delay at x = {x!r}: needs (q-1)*x < tau")
        return xm

    def default_domain(self) -> tuple[float, float]:
        q, tau = self.q, self.tau
        if q == 1.0:
            return (-math.inf, math.inf)
        if q < 1.0:
            return (-tau / (1.0 - q), math.inf)
        return (-math.inf, tau / (q - 1.0))


class QScaleDelay(_Affine):
    """x- = q*x with 0 < q < 1, valid on x > 0."""

    kind = "qscale"
    q: float
    tau = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ParameterDomainError(f"scale delay needs q in (0, 1), got {self.q!r}")

    def delayed_point(self, x: float) -> float:
        if not x > 0.0:
            raise DomainError(f"scale relation delays only on x > 0, got x = {x!r}")
        return self.q * x

    def advance(self, x: float) -> float:
        if not x > 0.0:
            raise DomainError(f"scale relation advances only on x > 0, got x = {x!r}")
        return x / self.q

    def default_domain(self) -> tuple[float, float]:
        return (0.0, math.inf)


class MoebiusDelay(DelayRelation):
    """x- = (x - C)/(1 + C*x), valid where C/(1 + C*x) > 0.

    On the angle variable theta = atan(x) this subtracts atan(C); advancing
    adds it back and fails at the pole 1 - C*x = 0, beyond which no real
    forward point exists.
    """

    kind = "moebius"
    c: float

    def __post_init__(self) -> None:
        if not (self.c != 0.0 and math.isfinite(self.c)):
            raise ParameterDomainError(f"moebius delay needs a finite C != 0, got {self.c!r}")

    def delayed_point(self, x: float) -> float:
        den = 1.0 + self.c * x
        if abs(den) <= _GUARD * (1.0 + abs(self.c * x)):
            raise DomainError(f"moebius relation has a pole at x = {x!r}")
        if not self.c / den > 0.0:
            raise DomainError(
                f"moebius relation is not a delay at x = {x!r}: needs C/(1+Cx) > 0")
        return (x - self.c) / den

    def delayed_points(self, xs: Sequence[float]) -> list[float]:
        c = self.c  # delayed_point's guards inline; a point that fails them is met again there
        xms = [(x - c) / den for x in xs
               if abs(den := 1.0 + c * x) > _GUARD * (1.0 + abs(c * x)) and c / den > 0.0]
        return xms if len(xms) == len(xs) else super().delayed_points(xs)

    def advance(self, x: float) -> float:
        den = 1.0 - self.c * x
        if den <= _GUARD * (1.0 + abs(self.c * x)):
            raise NoForwardPoint(
                f"moebius inversion leaves the line at x = {x!r} (1 - Cx = {den!r})")
        return (x + self.c) / den

    def as_expr(self) -> ex.Expr:
        c = ex.Num(self.c)
        return ex.Binary("/", ex.Binary("-", _X, c),
                         ex.Binary("+", ex.Num(1.0), ex.Binary("*", c, _X)))

    def derivative(self, x: float) -> float:
        den = 1.0 + self.c * x
        if abs(den) <= _GUARD * (1.0 + abs(self.c * x)):  # delayed_point's pole guard
            raise DomainError(f"moebius relation has a pole at x = {x!r}")
        return (1.0 + self.c * self.c) / (den * den)

    def default_domain(self) -> tuple[float, float]:
        return (-1.0 / self.c, math.inf)


class GeneralDelay(DelayRelation):
    """x- = g(x) for a user supplied g, which must be strictly increasing.

    delayed_point checks g(x) < x at every call.  advance solves g(x+) = x
    by doubling an initial bracket [x, x + 1] up to 60 times and bisecting;
    a non increasing sample sequence raises NotMonotone.
    """

    g: ex.Expr

    def __post_init__(self) -> None:
        ex.check_variables(self.g, {"x"}, "delay function may only use x")

    @functools.cached_property
    def _g(self):
        return ex.compile(self.g, ("x",))

    @functools.cached_property
    def _g_prime(self):
        return ex.compile(ex.differentiate(self.g, "x"), ("x",))

    def delayed_point(self, x: float) -> float:
        xm = self._g(x)
        if not xm < x:
            raise DomainError(f"supplied relation is not a delay at x = {x!r}: g(x) = {xm!r}")
        return xm

    def delayed_points(self, xs: Sequence[float]) -> list[float]:
        try:  # g in one column pass; delayed_point meets a failing x again
            (xms,) = ex.compile_columns((self.g,), ("x",))(xs)
        except DomainError:
            return super().delayed_points(xs)
        return xms if all(map(operator.lt, xms, xs)) else super().delayed_points(xs)

    def advance(self, x: float) -> float:
        gval = self._g
        lo = x
        width = 1.0
        prev_g = gval(lo)
        hi = lo
        for _ in range(60):
            hi = x + width
            ghi = gval(hi)
            if ghi <= prev_g:
                raise NotMonotone(
                    f"delay function decreased between {lo!r} and {hi!r}")
            prev_g = ghi
            if ghi >= x:
                break
            lo = hi
            width *= 2.0
        else:
            raise NoForwardPoint(
                f"no forward point of {x!r} found below {hi!r}")
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            if gval(mid) < x:
                a = mid
            else:
                b = mid
            if b - a <= 1e-16 * (1.0 + abs(a)):
                break
        root = 0.5 * (a + b)
        if abs(gval(root) - x) > 1e-13 * (1.0 + abs(x)):
            raise NoForwardPoint(
                f"forward point of {x!r} did not meet tolerance (got {root!r})")
        return root

    def as_expr(self) -> ex.Expr:
        return self.g

    def derivative(self, x: float) -> float:
        return self._g_prime(x)

    def spec_string(self) -> str:
        return f'general("{ex.to_text(self.g)}")'


def scale_delay(c: float) -> DelayRelation:
    """Relation x- = c*x on x > 0 for a finite c < 1, c != 0.

    0 < c < 1 gives the invertible scale relation; negative c still delays
    every positive x but is not increasing, so it is represented as a general
    relation, which advance finds decreasing at its first bracket step.
    """
    if c == 0.0 or not -math.inf < c < 1.0:
        raise ParameterDomainError(f"scale ratio needs a finite c < 1, c != 0, got {c!r}")
    if c > 0.0:
        return QScaleDelay(c)
    return GeneralDelay(ex.Binary("*", ex.Unary("neg", ex.Num(-c)), _X))  # as its spec parses


# ---------------------------------------------------------------------------
# meshes


class Mesh(ex.Record):
    """Strictly increasing points x_-1, x_0, ..., x_N with g(x_{n+1}) = x_n."""

    points: tuple[float, ...]
    relation: DelayRelation

    def __post_init__(self) -> None:
        pts = self.points
        if len(pts) < 2:
            raise ParameterDomainError("a mesh needs at least two points")
        for a, b in zip(pts, pts[1:]):
            if not a < b:
                raise ParameterDomainError(f"mesh points must increase, got {a!r} then {b!r}")
            back = self.relation.delayed_point(b)
            if abs(back - a) > 1e-12 * (1.0 + abs(a)):
                raise ParameterDomainError(
                    f"mesh link broken: g({b!r}) = {back!r}, expected {a!r}")

    @property
    def intervals(self) -> int:
        return len(self.points) - 2


def _check_count(name: str, n: int, least: float = 1) -> None:
    """A count or index is an integer (operator.index takes it) >= least."""
    if not (hasattr(type(n), "__index__") and operator.index(n) >= least):
        raise ParameterDomainError(f"{name} must be an integer >= {least}, got {n!r}")


def _check_x0(x0: float) -> None:
    """A start x0 is finite, checked before any relation takes g(x0)."""
    if not math.isfinite(x0):
        raise ParameterDomainError(f"x0 must be finite, got {x0!r}")


def build_mesh(relation: DelayRelation, x0: float, intervals: int) -> Mesh:
    """Mesh [g(x0), x0, advance(x0), ...] with the requested interval count.

    NoForwardPoint, carrying how far the chain got, propagates when it cannot
    be continued or its next point is not finite and past the last.  An x0
    that is not finite or that g does not move raises ParameterDomainError.
    """
    _check_count("intervals", intervals)
    _check_x0(x0)
    points = [relation.delayed_point(x0), x0]
    if not points[0] < x0:
        raise ParameterDomainError(f"mesh points must increase, got {points[0]!r} then {x0!r}")
    x = x0
    for n in range(intervals):
        try:
            x = relation.advance(x)
            if not points[-1] < x < math.inf:
                raise NoForwardPoint(f"the forward point of {points[-1]!r} is {x!r}")
        except NoForwardPoint as exc:
            raise NoForwardPoint(
                f"mesh truncated after {n} of {intervals} forward points: {exc}") from exc
        points.append(x)
    return Mesh(tuple(points), relation)


def closed_form_point(relation: DelayRelation, x0: float, x_minus1: float, n: int) -> float:
    """n-th mesh point of an affine family relation without iterating.

    For x- = q*x - tau the chain is x_n = x0/q**n + tau/(1-q)*(q**-n - 1)
    when q != 1 and x_n = x0 + n*tau when q = 1.  For q > 1 the points
    accumulate at tau/(q - 1).  n >= -1, and x0 is checked as in build_mesh;
    a point that overflows or is not finite raises NoForwardPoint.
    """
    _check_count("n", n, -1)
    _check_x0(x0)
    qt = relation.affine_parameters()
    if qt is None:
        raise ParameterDomainError(
            f"closed form mesh points exist only for affine family relations, "
            f"got {type(relation).__name__}")
    q, tau = qt
    expected = relation.delayed_point(x0)
    if abs(x_minus1 - expected) > 1e-9 * (1.0 + abs(expected)):
        raise ParameterDomainError(
            f"x_minus1 = {x_minus1!r} does not match the relation at x0 = {x0!r}")
    # q**-n - 1 through expm1: subtracting 1 cancels nearly every digit when
    # q is close to 1, and tau/(1 - q) then magnifies what is left
    try:
        x = (x0 + n * tau if q == 1.0
             else x0 * q ** (-n) + tau / (1.0 - q) * math.expm1(-n * math.log(q)))
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise NoForwardPoint(f"mesh point {n} from x0 = {x0!r} is not finite: {x!r}")
    return x


# ---------------------------------------------------------------------------
# textual form used by the CLI and system files

_DELAY_RE = re.compile(r"^\s*([a-z]+)\s*\(\s*(.*?)\s*\)\s*$", re.S)
_KINDS = {c.kind: c for c in (ConstantDelay, AffineDelay, QScaleDelay, MoebiusDelay)}


def _unquote(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] in "\"'" and raw[-1] == raw[0]:
        return raw[1:-1]
    return raw


def parse_delay_spec(text: str) -> DelayRelation:
    """Parse 'constant(tau)', 'affine(q, tau)', 'qscale(q)', 'moebius(C)'
    or 'general("<expr in x>")'."""
    m = _DELAY_RE.match(text)
    if m is None:
        raise ParameterDomainError(f"cannot parse delay specification {text!r}")
    kind, body = m.group(1), m.group(2)
    if kind == "general":
        return GeneralDelay(ex.parse(_unquote(body), ("x",)))
    try:
        args = [float(p) for p in body.split(",")] if body else []
    except ValueError:
        raise ParameterDomainError(f"bad numeric arguments in delay spec {text!r}") from None
    cls = _KINDS.get(kind)
    if cls is None or len(args) != len(cls._fields):
        raise ParameterDomainError(f"unknown delay specification {text!r}")
    return cls(*args)
