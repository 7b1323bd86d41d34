"""Method of steps for delay systems.

Marching over the mesh x_-1 < x_0 < ... < x_N, each interval [x_{n-1}, x_n]
hosts an ordinary differential equation because the delayed value y(g(x))
falls in the previous interval, where the solution is already known.  The
history function occupies the first segment; solutions are C0 at mesh points
and may have derivative jumps there, which smooth out as n grows.

Solved segments store (x, y, ydot) nodes and interpolate with cubic Hermite
polynomials, so interpolation error is O(h^4) in value and O(h^3) in slope.
"""

from __future__ import annotations

import bisect
import enum
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from . import expr as ex
from .delay import DelayRelation, Mesh, build_mesh, parse_delay_spec
from .delay import AffineDelay, ConstantDelay, MoebiusDelay, QScaleDelay
from .dods import Dods, InitialCondition, LinearRhs
from .errors import (MeshRangeError, OutOfRange, ParameterDomainError,
                     SchemeMismatch)
from .numerics import adaptive_simpson

__all__ = [
    "Scheme",
    "SolverConfig",
    "Segment",
    "PiecewiseSolution",
    "solve",
    "residual_scan",
    "from_exprs",
    "sample_expr",
    "solution_from_json",
]

_TOL = 1e-12


class Scheme(enum.Enum):
    EXACT_LINEAR = "exact-linear"
    RK4 = "rk4"


@dataclass(frozen=True)
class SolverConfig:
    scheme: Scheme = Scheme.EXACT_LINEAR
    step_count: int = 64
    quad_tol: float = 1e-12
    # testing hook: skip the closed-form integrating factor and fall back to
    # nested quadrature, so both paths can be compared
    force_generic_quadrature: bool = False

    def __post_init__(self) -> None:
        if self.step_count < 1:
            raise ParameterDomainError(f"step_count must be >= 1, got {self.step_count!r}")
        if not self.quad_tol > 0.0:
            raise ParameterDomainError(f"quad_tol must be positive, got {self.quad_tol!r}")


@dataclass(frozen=True)
class Segment:
    """Nodes of one interval with values and derivatives, cubic Hermite
    interpolated in between."""

    nodes: tuple[float, ...]
    values: tuple[float, ...]
    derivs: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if n < 2 or len(self.values) != n or len(self.derivs) != n:
            raise ParameterDomainError("segment needs matching node, value, deriv lists")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if not a < b:
                raise ParameterDomainError(f"segment nodes must increase, got {a!r}, {b!r}")

    @property
    def lo(self) -> float:
        return self.nodes[0]

    @property
    def hi(self) -> float:
        return self.nodes[-1]

    def _span(self, x: float) -> tuple[int, float, float]:
        """(j, h, t): x lies at t*h past node j, with h = nodes[j+1] - nodes[j];
        endpoints of the span clamp j."""
        j = bisect.bisect_right(self.nodes, x) - 1
        last = len(self.nodes) - 2
        j = 0 if j < 0 else last if j > last else j  # a tenth of min(max())
        x0 = self.nodes[j]
        h = self.nodes[j + 1] - x0
        return j, h, (x - x0) / h

    def value(self, x: float) -> float:
        """The interpolated value at x."""
        j, h, t = self._span(x)
        t2 = t * t
        t3 = t2 * t
        return ((2.0 * t3 - 3.0 * t2 + 1.0) * self.values[j]
                + (t3 - 2.0 * t2 + t) * h * self.derivs[j]
                + (-2.0 * t3 + 3.0 * t2) * self.values[j + 1]
                + (t3 - t2) * h * self.derivs[j + 1])

    def evaluate(self, x: float) -> tuple[float, float]:
        """(value, slope) at x."""
        j, h, t = self._span(x)
        y0, y1 = self.values[j], self.values[j + 1]
        d0, d1 = self.derivs[j], self.derivs[j + 1]
        t2 = t * t
        dy = ((6.0 * t2 - 6.0 * t) * (y0 - y1) / h
              + (3.0 * t2 - 4.0 * t + 1.0) * d0
              + (3.0 * t2 - 2.0 * t) * d1)
        return self.value(x), dy


@dataclass(frozen=True)
class PiecewiseSolution:
    """Segment 0 carries the history function on [x_-1, x_0]; segment n >= 1
    carries the solution of interval n."""

    mesh: Mesh
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        pts = self.mesh.points
        if len(self.segments) != len(pts) - 1:
            raise ParameterDomainError(
                f"expected {len(pts) - 1} segments for {len(pts)} mesh points, "
                f"got {len(self.segments)}")
        for i, seg in enumerate(self.segments):
            for end, p in ((seg.lo, pts[i]), (seg.hi, pts[i + 1])):
                if abs(end - p) > _TOL * (1.0 + abs(p)):
                    raise ParameterDomainError(
                        f"segment {i} spans [{seg.lo!r}, {seg.hi!r}], "
                        f"mesh wants [{pts[i]!r}, {pts[i + 1]!r}]")
        for i in range(len(self.segments) - 1):
            left = self.segments[i].values[-1]
            right = self.segments[i + 1].values[0]
            if abs(left - right) > 1e-10 * (1.0 + abs(left)):
                raise ParameterDomainError(
                    f"solution is discontinuous at mesh point {pts[i + 1]!r}: "
                    f"{left!r} vs {right!r}")

    @property
    def x_start(self) -> float:
        return self.mesh.points[0]

    @property
    def x_end(self) -> float:
        return self.mesh.points[-1]

    @property
    def intervals(self) -> int:
        return len(self.segments) - 1

    def _segment_index(self, x: float) -> int:
        lo, hi = self.x_start, self.x_end
        if x < lo - _TOL * (1.0 + abs(lo)) or x > hi + _TOL * (1.0 + abs(hi)):
            raise OutOfRange(f"x = {x!r} outside the solution range [{lo!r}, {hi!r}]")
        j = bisect.bisect_right(self.mesh.points, x) - 1
        return min(max(j, 0), len(self.segments) - 1)

    def _node_index(self, x: float) -> Optional[int]:
        pts = self.mesh.points
        j = bisect.bisect_left(pts, x)
        # x lies in (pts[j - 1], pts[j]]; only those two can be within _TOL
        for i in (j - 1, j):
            if 0 <= i < len(pts) and abs(x - pts[i]) <= _TOL * (1.0 + abs(pts[i])):
                return i
        return None

    def value(self, x: float) -> float:
        return self.segments[self._segment_index(x)].value(x)

    def eval(self, x: float) -> tuple[float, float, float]:
        """(y, ydot from the left, ydot from the right); the one-sided slopes
        differ only at mesh points."""
        i = self._node_index(x)
        if i is None:
            j = self._segment_index(x)
            y, d = self.segments[j].evaluate(x)
            return y, d, d
        if i == 0:
            seg = self.segments[0]
            return seg.values[0], seg.derivs[0], seg.derivs[0]
        left = self.segments[i - 1]
        y, dl = left.values[-1], left.derivs[-1]
        if i == len(self.mesh.points) - 1:
            return y, dl, dl
        return y, dl, self.segments[i].derivs[0]

    def derivative(self, x: float, side: str = "+") -> float:
        y, dl, dr = self.eval(x)
        if side not in ("+", "-"):
            raise ParameterDomainError(f"side must be '+' or '-', got {side!r}")
        return dr if side == "+" else dl

    def derivative_jump(self, n: int) -> float:
        """Right minus left slope at mesh point x_n (n = 0 is x_0)."""
        if not 0 <= n < len(self.segments) - 1:
            raise OutOfRange(
                f"mesh index {n!r} out of range 0..{len(self.segments) - 2}")
        return self.segments[n + 1].derivs[0] - self.segments[n].derivs[-1]

    def shifted(self, dx: float) -> "PiecewiseSolution":
        """The graph translated by dx in x (delay relation permitting)."""
        mesh = Mesh(tuple(p + dx for p in self.mesh.points), self.mesh.relation)
        segs = tuple(Segment(tuple(u + dx for u in s.nodes), s.values, s.derivs)
                     for s in self.segments)
        return PiecewiseSolution(mesh, segs)

    def mapped(self, scale: float, offset: "ex.Expr | str | float") -> "PiecewiseSolution":
        """Pointwise map y(x) -> scale*y(x) + offset(x)."""
        off, doff = _with_slope(ex.as_expr(offset, ("x",)))
        segs = []
        for s in self.segments:
            vals = tuple(scale * y + off(u) for u, y in zip(s.nodes, s.values))
            ders = tuple(scale * d + doff(u) for u, d in zip(s.nodes, s.derivs))
            segs.append(Segment(s.nodes, vals, ders))
        return PiecewiseSolution(self.mesh, tuple(segs))

    def to_csv(self) -> str:
        def fmt(v: float) -> str:
            return format(v, ".17g")

        rows = ["x,y,ydot_left,ydot_right"]
        first = self.segments[0]
        rows.append(",".join((fmt(first.nodes[0]), fmt(first.values[0]),
                              fmt(first.derivs[0]), fmt(first.derivs[0]))))
        for i, seg in enumerate(self.segments):
            for j in range(1, len(seg.nodes) - 1):
                rows.append(",".join((fmt(seg.nodes[j]), fmt(seg.values[j]),
                                      fmt(seg.derivs[j]), fmt(seg.derivs[j]))))
            dl = seg.derivs[-1]
            dr = self.segments[i + 1].derivs[0] if i + 1 < len(self.segments) else dl
            rows.append(",".join((fmt(seg.nodes[-1]), fmt(seg.values[-1]),
                                  fmt(dl), fmt(dr))))
        return "\n".join(rows) + "\n"

    def to_json(self) -> str:
        obj = {
            "kind": "solution",
            "delay": self.mesh.relation.spec_string(),
            "mesh": list(self.mesh.points),
            "segments": [
                {
                    "from": seg.lo,
                    "to": seg.hi,
                    "nodes": [{"x": u, "y": y, "dy": d}
                              for u, y, d in zip(seg.nodes, seg.values, seg.derivs)],
                }
                for seg in self.segments
            ],
        }
        return json.dumps(obj)


def solution_from_json(text: str) -> PiecewiseSolution:
    obj = json.loads(text)
    if not isinstance(obj, dict) or obj.get("kind") != "solution":
        raise ParameterDomainError('expected a JSON object with kind = "solution"')
    relation = parse_delay_spec(obj["delay"])
    mesh = Mesh(tuple(float(p) for p in obj["mesh"]), relation)
    segments = []
    for raw in obj["segments"]:
        nodes = tuple(float(n["x"]) for n in raw["nodes"])
        values = tuple(float(n["y"]) for n in raw["nodes"])
        derivs = tuple(float(n["dy"]) for n in raw["nodes"])
        segments.append(Segment(nodes, values, derivs))
    return PiecewiseSolution(mesh, tuple(segments))


def _with_slope(e: ex.Expr) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """e and its x-derivative compiled as functions of x."""
    return ex.compile(e, ("x",)), ex.compile(ex.differentiate(e, "x"), ("x",))


def _sample_segment(fns: tuple[Callable[[float], float], Callable[[float], float]],
                    lo: float, hi: float, m: int) -> Segment:
    f, df = fns
    nodes = tuple(lo + (hi - lo) * j / m for j in range(m + 1))
    return Segment(nodes, tuple(f(u) for u in nodes), tuple(df(u) for u in nodes))


def from_exprs(relation: DelayRelation, pieces: Sequence["ex.Expr | str"], x0: float,
               step_count: int = 64) -> PiecewiseSolution:
    """Sample closed forms into a piecewise solution; pieces[0] is the
    history on [g(x0), x0], the rest cover successive intervals."""
    if len(pieces) < 2:
        raise ParameterDomainError("need a history piece and at least one interval piece")
    exprs = [ex.as_expr(p, ("x",)) for p in pieces]
    mesh = build_mesh(relation, x0, len(pieces) - 1)
    segments = tuple(
        _sample_segment(_with_slope(e), mesh.points[i], mesh.points[i + 1], step_count)
        for i, e in enumerate(exprs))
    return PiecewiseSolution(mesh, segments)


def sample_expr(relation: DelayRelation, e: "ex.Expr | str", x0: float, intervals: int,
                step_count: int = 64) -> PiecewiseSolution:
    """Sample one global closed form over the whole mesh."""
    return from_exprs(relation, [ex.as_expr(e, ("x",))] * (intervals + 1), x0, step_count)


# ---------------------------------------------------------------------------
# solver


def _spread_constant(vals: Sequence[float]) -> Optional[float]:
    top = max(vals)
    bot = min(vals)
    scale = max(abs(top), abs(bot))
    if top - bot <= 1e-12 * (1.0 + scale):
        return 0.5 * (top + bot)
    return None


def _alpha_antiderivative(alpha_f: Callable[[float], float], relation: DelayRelation,
                          lo: float, hi: float) -> Optional[Callable[[float], float]]:
    """Closed-form antiderivative of alpha on [lo, hi] when alpha is constant
    or proportional to 1/(x - g(x)) for a relation with a tractable gap.
    Detection samples nine interior points; the cross-check suite compares
    this path against plain quadrature."""
    probes = [lo + (hi - lo) * (i + 0.5) / 9.0 for i in range(9)]
    avals = [alpha_f(u) for u in probes]
    k = _spread_constant(avals)
    if k is not None:
        return lambda u, k=k: k * u
    gaps = [u - relation.delayed_point(u) for u in probes]
    k = _spread_constant([a * g for a, g in zip(avals, gaps)])
    if k is None:
        return None
    if isinstance(relation, ConstantDelay):
        return lambda u, k=k: k * u / relation.tau
    if isinstance(relation, AffineDelay):
        q, tau = relation.q, relation.tau
        if q == 1.0:
            return lambda u, k=k: k * u / tau
        # the gap (1-q)x + tau is positive wherever the relation delays
        return lambda u, k=k: k / (1.0 - q) * math.log((1.0 - q) * u + tau)
    if isinstance(relation, QScaleDelay):
        q = relation.q
        return lambda u, k=k: k / (1.0 - q) * math.log(u)
    if isinstance(relation, MoebiusDelay):
        c = relation.c
        return lambda u, k=k: k * (math.atan(u) / c + 0.5 * math.log1p(u * u))
    return None


def solve(d: Dods, init: InitialCondition, intervals: int,
          config: SolverConfig = SolverConfig()) -> PiecewiseSolution:
    """March the DODS forward for the requested number of intervals.

    ExactLinear advances each step with the integrating factor
    y(v) = E(u,v) y(u) + int E(s,v) (beta(s) y(g(s)) + gamma(s)) ds and is
    exact up to quadrature and interpolation error; RK4 uses fixed steps.
    """
    mesh = build_mesh(d.delay, init.x0, intervals)
    if abs(init.x_minus1 - mesh.points[0]) > _TOL * (1.0 + abs(mesh.points[0])):
        raise ParameterDomainError(
            f"initial interval starts at {init.x_minus1!r} but the delay puts "
            f"g(x0) = {mesh.points[0]!r}")
    lo, hi = d.domain
    # the history start g(x0) may precede the domain; only forward points
    # are evaluation sites for the equation
    for p in mesh.points[1:]:
        if not (lo - _TOL < p < hi + _TOL):
            raise MeshRangeError(
                f"mesh point {p!r} leaves the domain ({lo!r}, {hi!r})")

    m = config.step_count
    segments = [_sample_segment(_with_slope(init.phi), mesh.points[0], mesh.points[1], m)]

    if config.scheme is Scheme.EXACT_LINEAR and not isinstance(d.rhs, LinearRhs):
        raise SchemeMismatch("the ExactLinear scheme requires a linear right hand side")
    if config.scheme is Scheme.RK4:
        rhs_fn = d.rhs_fn
    else:
        alpha_f, beta_f, gamma_f = d.coefficient_fns
    delayed_point = d.delay.delayed_point

    for n in range(1, intervals + 1):
        a, b = mesh.points[n], mesh.points[n + 1]
        prev = segments[-1]
        nodes = tuple(a + (b - a) * j / m for j in range(m + 1))

        y = segments[-1].values[-1]
        if config.scheme is Scheme.RK4:
            # y(g(x)) lies in the previous interval
            def rhs(x: float, yv: float, prev: Segment = prev) -> float:
                return rhs_fn(x, yv, prev.value(delayed_point(x)))

            values = [y]
            h = (b - a) / m
            for j in range(m):
                x = nodes[j]
                k1 = rhs(x, y)
                k2 = rhs(x + 0.5 * h, y + 0.5 * h * k1)
                k3 = rhs(x + 0.5 * h, y + 0.5 * h * k2)
                k4 = rhs(nodes[j + 1], y + h * k3)
                y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                values.append(y)
            derivs = [rhs(u, yv) for u, yv in zip(nodes, values)]
        else:
            def c_f(u: float, prev: Segment = prev) -> float:
                return beta_f(u) * prev.value(delayed_point(u)) + gamma_f(u)

            anti = None
            if not config.force_generic_quadrature:
                anti = _alpha_antiderivative(alpha_f, d.delay, a, b)
            values = [y]
            for j in range(m):
                t0, t1 = nodes[j], nodes[j + 1]
                if anti is not None:
                    at1 = anti(t1)
                    growth = math.exp(at1 - anti(t0))
                    integrand = lambda u: math.exp(at1 - anti(u)) * c_f(u)
                else:
                    growth = math.exp(adaptive_simpson(alpha_f, t0, t1, config.quad_tol))
                    integrand = lambda u: math.exp(
                        adaptive_simpson(alpha_f, u, t1, config.quad_tol)) * c_f(u)
                y = growth * y + adaptive_simpson(integrand, t0, t1, config.quad_tol)
                values.append(y)
            derivs = [alpha_f(u) * yv + c_f(u) for u, yv in zip(nodes, values)]
        segments.append(Segment(nodes, tuple(values), tuple(derivs)))

    return PiecewiseSolution(mesh, tuple(segments))


_GOLDEN = 0.6180339887498949


def residual_scan(s: PiecewiseSolution, d: Dods, samples_per_segment: int = 48) -> float:
    """Max |ydot - f(x, y, y(g(x)))| over off-node samples of every solved
    segment.  This is the project-wide correctness oracle: it only uses the
    stored solution and the system definition."""
    if samples_per_segment < 1:
        raise ParameterDomainError("need at least one sample per segment")
    worst = 0.0
    for n in range(1, len(s.segments)):
        a, b = s.mesh.points[n], s.mesh.points[n + 1]
        for i in range(samples_per_segment):
            x = a + (b - a) * ((i + _GOLDEN) / samples_per_segment)
            y, dl, _ = s.eval(x)
            xm = d.delay.delayed_point(x)
            ym = s.value(xm)
            r1, _ = d.residual(x, y, xm, ym, dl)
            worst = max(worst, abs(r1))
    return worst
