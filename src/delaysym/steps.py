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
from typing import Callable, Optional, Sequence, Union

from . import expr as ex
from .delay import DelayRelation, Mesh, build_mesh, parse_delay_spec
from .dods import Dods, InitialCondition, LinearRhs, _max_residual
from .errors import (MeshRangeError, OutOfRange, ParameterDomainError,
                     SchemeMismatch)

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


class SolverConfig(ex.Record):
    scheme: Scheme = Scheme.EXACT_LINEAR
    step_count: int = 64

    def __post_init__(self) -> None:
        if self.step_count < 1:
            raise ParameterDomainError(f"step_count must be >= 1, got {self.step_count!r}")


class Segment(ex.Record):
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


class PiecewiseSolution(ex.Record):
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


# Three-point Gauss-Legendre rule on [0, 1]: nodes c, weights b, and a[i][k]
# the integral of node k's Lagrange polynomial over [0, c_i].  Its sums for A
# miss by O(h^5) per step, the order of the cubic Hermite storage floor; on the
# benchmark's closed forms three points agree with four and six to rounding,
# two do not (A4_21, m = 64: 9e-9 against 2e-13).
_R15 = math.sqrt(15.0)
_GL_C = (0.5 - _R15 / 10.0, 0.5, 0.5 + _R15 / 10.0)
_GL_B = (5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0)
_GL_A = ((5.0 / 36.0, 2.0 / 9.0 - _R15 / 15.0, 5.0 / 36.0 - _R15 / 30.0),
         (5.0 / 36.0 + _R15 / 24.0, 2.0 / 9.0, 5.0 / 36.0 - _R15 / 24.0),
         (5.0 / 36.0 + _R15 / 30.0, 2.0 / 9.0 + _R15 / 15.0, 5.0 / 36.0))
# exponent weights of e^(A(t1) - A(s_i)): b[k] - a[i][k]
_GL_TAIL = tuple(tuple(bk - aik for bk, aik in zip(_GL_B, row)) for row in _GL_A)
# cubic Hermite basis at t = c_i, for reading a step of the previous segment
_GL_HERMITE = tuple((2.0 * t ** 3 - 3.0 * t * t + 1.0, t ** 3 - 2.0 * t * t + t,
                     -2.0 * t ** 3 + 3.0 * t * t, t ** 3 - t * t) for t in _GL_C)


def solve(d: Dods, init: InitialCondition, intervals: int,
          config: SolverConfig = SolverConfig()) -> PiecewiseSolution:
    """March the DODS forward for the requested number of intervals.

    ExactLinear advances each step [t0, t1] with the integrating factor,
    y(t1) = e^(A(t1)-A(t0)) y(t0) + int e^(A(t1)-A(s)) (beta(s) y(g(s)) +
    gamma(s)) ds with A' = alpha, on fixed Gauss-Legendre points, so a step
    costs the same whatever the solution's size.  RK4 uses fixed steps.
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
    step = _rk4_interval if config.scheme is Scheme.RK4 else _exact_linear_interval
    for n in range(1, intervals + 1):
        a, b = mesh.points[n], mesh.points[n + 1]
        nodes = tuple(a + (b - a) * j / m for j in range(m + 1))
        segments.append(step(d, segments[-1], nodes, (b - a) / m))

    return PiecewiseSolution(mesh, tuple(segments))


def _rk4_interval(d: Dods, prev: Segment, nodes: tuple[float, ...], h: float) -> Segment:
    """Classical RK4 with step h; y(g(x)) is read from the previous interval.
    k2 and k3 share that read, k4's is the next k1's, and k1 is the node slope."""
    rhs_fn, delayed_point, lookup = d.rhs_fn, d.delay.delayed_point, prev.value
    y = prev.values[-1]
    ym = lookup(delayed_point(nodes[0]))
    values = [y]
    derivs = []
    for j in range(len(nodes) - 1):
        x = nodes[j]
        k1 = rhs_fn(x, y, ym)
        xh = x + 0.5 * h
        ymh = lookup(delayed_point(xh))
        k2 = rhs_fn(xh, y + 0.5 * h * k1, ymh)
        k3 = rhs_fn(xh, y + 0.5 * h * k2, ymh)
        ym = lookup(delayed_point(nodes[j + 1]))
        k4 = rhs_fn(nodes[j + 1], y + h * k3, ym)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values.append(y)
        derivs.append(k1)
    derivs.append(rhs_fn(nodes[-1], y, ym))
    return Segment(nodes, tuple(values), tuple(derivs))


def _exact_linear_interval(d: Dods, prev: Segment, nodes: tuple[float, ...],
                           h: float) -> Segment:
    """Integrating-factor steps on the Gauss-Legendre points (see solve).
    pts, delayed, alphas and forcing hold one list per Gauss point, over
    every step."""
    alpha_f, beta_f, gamma_f = d.coefficient_fns
    delayed_point, lookup = d.delay.delayed_point, prev.value
    pts = [[t0 + h * c for t0 in nodes[:-1]] for c in _GL_C]
    pn, pv, pd = prev.nodes, prev.values, prev.derivs
    if d.delay.affine_parameters() is not None:
        # an affine g maps step j onto step j of the previous segment, with
        # each Gauss point at the same fraction c_i of it
        spans = list(zip(pv, pv[1:], pd, pd[1:], [t1 - t0 for t0, t1 in zip(pn, pn[1:])]))
        delayed = [[w0 * v0 + w1 * hp * d0 + w2 * v1 + w3 * hp * d1
                    for v0, v1, d0, d1, hp in spans] for w0, w1, w2, w3 in _GL_HERMITE]
        at_nodes = pv
    else:
        delayed = [[lookup(delayed_point(u)) for u in col] for col in pts]
        at_nodes = [lookup(delayed_point(u)) for u in nodes]
    alphas = [list(map(alpha_f, col)) for col in pts]
    forcing = [[beta_f(u) * ym + gamma_f(u) for u, ym in zip(col, ycol)]
               for col, ycol in zip(pts, delayed)]

    def factors(weights: tuple[float, ...]) -> list[float]:
        """e^(h sum_i w_i alpha(s_i)) of every step."""
        rise = [0.0] * (len(nodes) - 1)
        for w, col in zip(weights, alphas):
            rise = [r + w * a for r, a in zip(rise, col)]
        return [math.exp(h * r) for r in rise]

    duhamel = [0.0] * (len(nodes) - 1)
    for weight, tail, col in zip(_GL_B, _GL_TAIL, forcing):
        duhamel = [s + weight * e * f for s, e, f in zip(duhamel, factors(tail), col)]
    y = pv[-1]
    values = [y]
    for growth, s in zip(factors(_GL_B), duhamel):
        y = growth * y + h * s
        values.append(y)
    derivs = tuple(alpha_f(u) * yv + (beta_f(u) * ym + gamma_f(u))
                   for u, yv, ym in zip(nodes, values, at_nodes))
    return Segment(nodes, tuple(values), derivs)


def residual_scan(s: PiecewiseSolution, d: Dods, samples_per_segment: int = 48) -> float:
    """Max |ydot - f(x, y, y(g(x)))| over off-node samples of every solved
    segment.  This is the project-wide correctness oracle: it only uses the
    stored solution and the system definition."""
    if samples_per_segment < 1:
        raise ParameterDomainError("need at least one sample per segment")
    pts = s.mesh.points
    # every sample lies strictly inside its segment, so segment n holds it
    # and it is no mesh point
    return max((_max_residual(d, pts[n], pts[n + 1], samples_per_segment,
                              s.segments[n].evaluate, s.value)
                for n in range(1, len(s.segments))), default=0.0)
