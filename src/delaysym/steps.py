"""Method of steps for delay systems.

Marching over the mesh x_-1 < x_0 < ... < x_N, each interval [x_{n-1}, x_n]
hosts an ordinary differential equation because the delayed value y(g(x))
falls in the previous interval, where the solution is already known.  The
history function occupies the first segment; solutions are C0 at mesh points
and may have derivative jumps there, which smooth out as n grows.

Solved segments store (x, y, ydot) nodes and interpolate with cubic Hermite
polynomials (_hermite), so interpolation error is O(h^4) in value and O(h^3)
in slope.

The delayed points of an interval do not depend on its solution, so each
interval reads y(g(x)) at all of them from the previous segment before it
steps (_delayed_abscissae).  Under an affine g, step j of an interval maps
onto step j of the previous segment at the same fraction t, so both schemes
read the previous steps' Hermite data at fixed t (_span_reads) and compute
no g(x); any other g is taken in one pass (DelayRelation.delayed_points)
and read in one sweep (Segment.values_at).  Either
scheme then steps the interval in one loop generated from the right hand
side's trees (_loop, see solve), which takes what cannot change within
the interval, exact-linear's integrating factors under an alpha without
x, once before its steps.
"""

from __future__ import annotations

import bisect
import enum
import functools
import json
import math
from collections.abc import Callable, Iterable, Sequence

from . import expr as ex
from .delay import DelayRelation, Mesh, _check_count, build_mesh, parse_delay_spec
from .dods import (Dods, InitialCondition, LinearRhs, _Y, _YM, _golden_points, _max_residual,
                   _with_slope)
from .errors import (DomainError, MeshRangeError, OutOfRange, ParameterDomainError,
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
        _check_count("step_count", self.step_count)


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

    def value(self, x: float) -> float:
        """The interpolated value at x."""
        return self._read((x,), False)[0]

    def values_at(self, xs: Iterable[float]) -> list[float]:
        """The interpolated value at each of xs, in order; bit for bit
        [value(x) for x in xs]."""
        return self._read(xs, False)

    def evaluate(self, x: float) -> tuple[float, float]:
        """(value, slope) at x."""
        return self._read((x,), True)[0]

    def _read(self, xs: Iterable[float], slopes: bool) -> list:
        """The value, or with slopes the (value, slope) pair, at each of xs.
        x lies t*h past node j, with h = nodes[j+1] - nodes[j]; the end spans
        extend past either end, so xs need not be sorted or inside [lo, hi].
        Only an x outside the span last used, [nodes[j], nodes[j+1]), bisects."""
        nodes, values, derivs = self.nodes, self.values, self.derivs
        hi = len(nodes) - 1
        right = bisect.bisect_right
        out = []
        x0 = x1 = math.nan  # no span yet
        for x in xs:
            if not x0 <= x < x1:
                j = right(nodes, x, 1, hi) - 1
                x0, x1 = nodes[j], nodes[j + 1]
                h = x1 - x0
                v0, v1, d0, d1 = values[j], values[j + 1], derivs[j], derivs[j + 1]
            # _hermite(t), inline: a call per point made values_at 1.2-1.8x slower
            t = (x - x0) / h
            t2 = t * t
            t3 = t2 * t
            y = ((2.0 * t3 - 3.0 * t2 + 1.0) * v0 + (t3 - 2.0 * t2 + t) * h * d0
                 + (-2.0 * t3 + 3.0 * t2) * v1 + (t3 - t2) * h * d1)
            if slopes:
                y = y, ((6.0 * t2 - 6.0 * t) * (v0 - v1) / h + (3.0 * t2 - 4.0 * t + 1.0) * d0
                        + (3.0 * t2 - 2.0 * t) * d1)
            out.append(y)
        return out


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
        if not lo - _TOL * (1.0 + abs(lo)) <= x <= hi + _TOL * (1.0 + abs(hi)):
            raise OutOfRange(f"x = {x!r} outside the solution range [{lo!r}, {hi!r}]")
        j = bisect.bisect_right(self.mesh.points, x) - 1
        return min(max(j, 0), len(self.segments) - 1)

    def _at_point(self, i: int) -> tuple[float, float, float, float]:
        """(x, y, ydot_left, ydot_right) at mesh point i as the segments store
        them: the left slope ends segment i - 1 and the right one starts
        segment i; x_-1 and the last point repeat their one slope."""
        segs = self.segments
        seg, k = (segs[i - 1], -1) if i else (segs[0], 0)
        dl = seg.derivs[k]
        return seg.nodes[k], seg.values[k], dl, segs[i].derivs[0] if 0 < i < len(segs) else dl

    def value(self, x: float) -> float:
        return self.segments[self._segment_index(x)].value(x)

    def eval(self, x: float) -> tuple[float, float, float]:
        """(y, ydot from the left, ydot from the right); the one-sided slopes
        differ only at mesh points."""
        j = self._segment_index(x)
        pts = self.mesh.points
        for i in (j, j + 1):  # x lies in segment j, so no other point is within _TOL
            if abs(x - pts[i]) <= _TOL * (1.0 + abs(pts[i])):
                return self._at_point(i)[1:]
        y, d = self.segments[j].evaluate(x)
        return y, d, d

    def derivative(self, x: float, side: str = "+") -> float:
        y, dl, dr = self.eval(x)
        if side not in ("+", "-"):
            raise ParameterDomainError(f"side must be '+' or '-', got {side!r}")
        return dr if side == "+" else dl

    def derivative_jump(self, n: int) -> float:
        """Right minus left slope at mesh point x_n (n = 0 is x_0)."""
        _check_count("n", n, -math.inf)  # any integer; its range raises OutOfRange below
        if not 0 <= n < len(self.segments) - 1:
            raise OutOfRange(
                f"mesh index {n!r} out of range 0..{len(self.segments) - 2}")
        _, _, dl, dr = self._at_point(n + 1)
        return dr - dl

    def shifted(self, dx: float) -> "PiecewiseSolution":
        """The graph translated by dx in x (delay relation permitting)."""
        mesh = Mesh(tuple(p + dx for p in self.mesh.points), self.mesh.relation)
        segs = tuple(Segment(tuple(u + dx for u in s.nodes), s.values, s.derivs)
                     for s in self.segments)
        return PiecewiseSolution(mesh, segs)

    def mapped(self, scale: float, offset: "ex.Expr | str | float") -> "PiecewiseSolution":
        """Pointwise map y(x) -> scale*y(x) + offset(x)."""
        with_slope = _with_slope(ex.as_expr(offset, ("x",)))
        segs = []
        for s in self.segments:
            off, doff = with_slope(s.nodes)
            vals = tuple(scale * y + o for y, o in zip(s.values, off))
            ders = tuple(scale * d + o for d, o in zip(s.derivs, doff))
            segs.append(Segment(s.nodes, vals, ders))
        return PiecewiseSolution(self.mesh, tuple(segs))

    def to_csv(self) -> str:
        rows = [self._at_point(0)]
        for i, seg in enumerate(self.segments, 1):
            d = seg.derivs[1:-1]
            rows += zip(seg.nodes[1:-1], seg.values[1:-1], d, d)
            rows.append(self._at_point(i))
        return "x,y,ydot_left,ydot_right\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in rows)

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
    """The solution that to_json wrote; any other text raises ParameterDomainError."""
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict) or obj.get("kind") != "solution":
            raise ParameterDomainError('expected a JSON object with kind = "solution"')
        relation = parse_delay_spec(obj["delay"])
        mesh = Mesh(tuple(float(p) for p in obj["mesh"]), relation)
        segments = tuple(Segment(*(tuple(float(n[k]) for n in raw["nodes"])
                                   for k in ("x", "y", "dy"))) for raw in obj["segments"])
    except KeyError as exc:
        raise ParameterDomainError(f"the solution lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ParameterDomainError(f"malformed solution: {exc}") from exc
    return PiecewiseSolution(mesh, segments)


def _nodes(a: float, b: float, m: int) -> tuple[float, ...]:
    """The m + 1 nodes a + (b - a)*j/m of m steps of [a, b]."""
    w = b - a
    return tuple([a + w * j / m for j in range(m + 1)])


def _sample_segment(with_slope: Callable[..., tuple[list[float], list[float]]],
                    lo: float, hi: float, m: int) -> Segment:
    """m steps of [lo, hi] sampled by a _with_slope function."""
    nodes = _nodes(lo, hi, m)
    values, derivs = with_slope(nodes)
    return Segment(nodes, tuple(values), tuple(derivs))


def from_exprs(relation: DelayRelation, pieces: Sequence["ex.Expr | str"], x0: float,
               step_count: int = 64) -> PiecewiseSolution:
    """Sample closed forms into a piecewise solution; pieces[0] is the
    history on [g(x0), x0], the rest cover successive intervals."""
    _check_count("step_count", step_count)
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
    _check_count("intervals", intervals)
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


def _hermite(t: float) -> tuple[float, float, float, float]:
    """The cubic Hermite weights of v0, h*d0, v1 and h*d1 at t of a step,
    in Segment._read's order of operations."""
    t2 = t * t
    t3 = t2 * t
    return 2.0 * t3 - 3.0 * t2 + 1.0, t3 - 2.0 * t2 + t, -2.0 * t3 + 3.0 * t2, t3 - t2


def _span_reads(prev: Segment, rows: Iterable[tuple[float, ...]]) -> list[float]:
    """prev read at the same fraction t of every step, for each row of
    weights _hermite(t), one row after another; bit for bit Segment._read
    at x = node + t*h wherever that x is exact."""
    pn, pv, pd = prev.nodes, prev.values, prev.derivs
    spans = list(zip(pv, pv[1:], pd, pd[1:], [t1 - t0 for t0, t1 in zip(pn, pn[1:])]))
    return [w0 * v0 + w1 * hp * d0 + w2 * v1 + w3 * hp * d1
            for w0, w1, w2, w3 in rows for v0, v1, d0, d1, hp in spans]


def solve(d: Dods, init: InitialCondition, intervals: int,
          config: SolverConfig = SolverConfig()) -> PiecewiseSolution:
    """March the DODS forward for the requested number of intervals.

    ExactLinear advances each step [t0, t1] with the integrating factor,
    y(t1) = e^(A(t1)-A(t0)) y(t0) + int e^(A(t1)-A(s)) (beta(s) y(g(s)) +
    gamma(s)) ds with A' = alpha, on fixed Gauss-Legendre points, so a step
    costs the same whatever the solution's size.  RK4 uses fixed steps on
    any right hand side, linear or general.  Each runs one loop generated
    from the right hand side's trees, which takes a subtree of x and ym
    alone once per abscissa and gives the bits, and the first error, of
    evaluating the trees point by point in this order.  Either scheme first
    reads the interval's delayed values: an affine delay from the previous
    segment's steps at fixed fractions, which differ by a few ulps from
    reads at g(x) where g(x) rounds, any other at g(x) in one sweep in
    marching order, so where the delay and a coefficient both fail, the
    delay's DomainError is raised.  RK4 then takes per step k1 (the node
    slope), k2, k3 and k4.  Exact-linear takes the first node's slope; then
    per step alpha and the forcing beta*ym + gamma at its three Gauss points,
    the integrating factors and the next node's slope; where alpha has no x,
    the factors are taken once, before the steps, and their overflow is
    raised at the first step, after its forcing.  Where that raises
    DomainError, alpha is taken at every step's first Gauss point, then
    second, then third, and its first failure, if any, is raised instead, so
    alpha's error still comes first.  An interval that ends on
    a value or slope that is not finite, or whose integrating factor
    overflows, raises DomainError naming it.
    """
    mesh = build_mesh(d.delay, init.x0, intervals)
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
        seg = step(d, segments[-1], _nodes(a, b, m), (b - a) / m)
        # a value that is not finite stays so through every later step
        if not (math.isfinite(seg.values[-1]) and math.isfinite(seg.derivs[-1])):
            raise DomainError(f"the solution is not finite on the interval [{a!r}, {b!r}]")
        segments.append(seg)

    return PiecewiseSolution(mesh, tuple(segments))


def _delayed_abscissae(d: Dods, prev: Segment, nodes: tuple[float, ...], h: float,
                       fractions: tuple[float, ...]) -> tuple[list[float], list[float]]:
    """The nodes with each step's points node + h*c, c in fractions, between
    them, in marching order, and y(g(x)) at each, read from the previous
    interval: under an affine g its node values and its steps at the same
    fractions (_span_reads), with no g(x) computed; under any other g in one
    pass and one sweep in marching order, so the first x the delay rejects is
    the one a point-by-point march meets first."""
    k, n = len(fractions) + 1, len(nodes) - 1
    xs = [0.0] * (k * n + 1)
    xs[::k] = nodes
    for i, c in enumerate(fractions, 1):
        xs[i::k] = [x + h * c for x in nodes[:-1]]
    if d.delay.affine_parameters() is None:
        return xs, prev.values_at(d.delay.delayed_points(xs))
    yms, reads = xs[:], _span_reads(prev, map(_hermite, fractions))
    yms[::k] = prev.values
    for i in range(1, k):
        yms[i::k] = reads[(i - 1) * n:i * n]
    return xs, yms


# Each scheme steps an interval in one function generated by one _emit over
# its stages, each a tree with the stage's names put for x, y and ym: a
# subtree of x and ym alone, such as beta(x1)*ym1, is one interned node run
# once per abscissa, and every bit and first error is that of the stages
# evaluated one by one.  Stage 0, the first node's slope, runs before the
# loop on names of its own (with y for y0, a subtree of y alone would be one
# node with the last stage's, read stale), so it shares only constants with
# the rest, which then run once; the rest run in the loop, cut at _emit's
# ends.  Arguments are floats, so _emit's float() lines go; the templates'
# own names avoid its a<i>, t<k> and k<i>.  ex._define raises an
# OverflowError out of a template as DomainError.

_RK4 = """\
half, sixth = 0.5 * h, h / 6.0
{x0}, {ym0}, {y} = xs[0], yms[0], {y0}
values, derivs = [{y}], []
{0}s1 = {o0}
for {xh}, {ymh}, {x1}, {ym1} in zip(xs[1::2], yms[1::2], xs[2::2], yms[2::2]):
    {y2} = {y} + half * s1
{1}    {y3} = {y} + half * {o1}
{2}    {y4} = {y} + h * {o2}
{3}    {y} = {y} + sixth * (s1 + 2.0 * {o1} + 2.0 * {o2} + {o3})
    values.append({y})
    derivs.append(s1)
{4}    s1 = {o4}
derivs.append(s1)
return tuple(values), tuple(derivs)"""
# e_i = e^(A(t1) - A(s_i)) and e3 = e^(A(t1) - A(t0)), each sum from 0.0,
# which sets a zero's sign.  A step takes them after its forcing ({each});
# where alpha has no x they are the interval's, taken once before the loop
# ({once}).  Either way their overflow is raised after the forcing of the
# first step that uses them.
_FACTORS = """\
try:
    e0 = exp(h * (((0.0 + w00 * {o1}) + w01 * {o2}) + w02 * {o3}))
    e1 = exp(h * (((0.0 + w10 * {o1}) + w11 * {o2}) + w12 * {o3}))
    e2 = exp(h * (((0.0 + w20 * {o1}) + w21 * {o2}) + w22 * {o3}))
    e3 = exp(h * (((0.0 + b0 * {o1}) + b1 * {o2}) + b2 * {o3}))
except OverflowError:
    overflows = True"""
_EXACT_LINEAR = """\
(w00, w01, w02), (w10, w11, w12), (w20, w21, w22), (b0, b1, b2) = _weights
exp = _exp
{x0}, {ym0}, {y} = xs[0], yms[0], {y0}
values = [{y}]
{0}derivs, overflows = [{o0}], False
{once}for {xa}, {yma}, {xb}, {ymb}, {xc}, {ymc}, {x1}, {ym1} in zip(
        xs[1::4], yms[1::4], xs[2::4], yms[2::4], xs[3::4], yms[3::4], xs[4::4], yms[4::4]):
{1}{2}{3}{4}{5}{6}{each}    if overflows:
        raise DomainError("the integrating factor overflows on the interval "
                          f"[{{xs[0]!r}}, {{xs[-1]!r}}]")
    s = ((0.0 + b0 * e0 * {o4}) + b1 * e1 * {o5}) + b2 * e2 * {o6}
    {y} = e3 * {y} + h * s
    values.append({y})
{7}    derivs.append({o7})
return tuple(values), tuple(derivs)"""
# per scheme its parameters, its stages as (tree, names for x, y, ym) and its
# template: RK4's k1 = f(x0, y0, ym0), k2, k3, k4 and the next k1; exact-linear's
# slope alpha*y + (beta*ym + gamma), alpha and forcing at s_0, s_1, s_2, next slope
_SCHEMES = {
    Scheme.RK4: ("xs, yms, {y0}, h", ((0, "x0", "y0", "ym0"), (0, "xh", "y2", "ymh"),
                 (0, "xh", "y3", "ymh"), (0, "x1", "y4", "ym1"), (0, "x1", "y", "ym1")), _RK4),
    Scheme.EXACT_LINEAR: ("xs, yms, {y0}, h", ((1, "x0", "y0", "ym0"), (2, "xa", "y", "yma"),
                          (2, "xb", "y", "ymb"), (2, "xc", "y", "ymc"), (0, "xa", "y", "yma"),
                          (0, "xb", "y", "ymb"), (0, "xc", "y", "ymc"), (1, "x1", "y", "ym1")),
                          _EXACT_LINEAR),
}
_STEP_GLOBALS = {**ex._COMPILE_GLOBALS, "_weights": (*_GL_TAIL, _GL_B), "DomainError": DomainError}


@functools.lru_cache(maxsize=256)
def _loop(scheme: Scheme, trees: tuple[ex.Expr, ...]
          ) -> Callable[..., tuple[tuple[float, ...], tuple[float, ...]]]:
    """The scheme's steps over its trees (RK4's f, exact-linear's forcing,
    slope and alpha) as a function of its parameters; cached by the interned
    trees.  Where exact-linear's alpha has no x, its factors go before the
    loop (_FACTORS)."""
    params, stages, template = _SCHEMES[scheme]
    arg = {name: f"a{i}" for i, name in enumerate(
        dict.fromkeys(name for _, *names in stages for name in names))}
    lines, outputs, consts, ends = ex._emit(
        [ex.substitute(trees[i], {v: ex.Var(name) for v, name in zip(("x", "y", "ym"), names)})
         for i, *names in stages], tuple(arg))
    coerced = {f"{a} = float({a})" for a in arg.values()}
    blocks = ("".join(f"{'    ' if i else ''}{line}\n"
                      for line in lines[a:b] if line not in coerced)
              for i, (a, b) in enumerate(zip([0, *ends], ends)))
    fields = {**arg, **{f"o{i}": o for i, o in enumerate(outputs)}}
    if scheme is Scheme.EXACT_LINEAR:
        once = "x" not in ex.variables_of(trees[2])
        pad = "" if once else "    "
        factors = "".join(f"{pad}{line}\n" for line in _FACTORS.format(**fields).split("\n"))
        fields |= {"once": factors if once else "", "each": "" if once else factors}
    source = template.format(*blocks, **fields)
    return ex._define(params.format(**arg), source.split("\n"), consts, _STEP_GLOBALS)


def _rk4_interval(d: Dods, prev: Segment, nodes: tuple[float, ...], h: float) -> Segment:
    """Classical RK4 with step h (see _loop).  k2 and k3 share the midpoint
    read, k4's abscissa is the next k1's, and k1 is the node slope."""
    xs, yms = _delayed_abscissae(d, prev, nodes, h, (0.5,))
    return Segment(nodes, *_loop(Scheme.RK4, (d.rhs._tree(),))(xs, yms, prev.values[-1], h))


def _exact_linear_interval(d: Dods, prev: Segment, nodes: tuple[float, ...],
                           h: float) -> Segment:
    """Integrating-factor steps on the Gauss-Legendre points (see solve and _loop)."""
    r = d.rhs
    forcing = ex.Binary("+", ex.Binary("*", r.beta, _YM), r.gamma)
    slope = ex.Binary("+", ex.Binary("*", r.alpha, _Y), forcing)
    xs, yms = _delayed_abscissae(d, prev, nodes, h, _GL_C)
    try:
        return Segment(nodes, *_loop(Scheme.EXACT_LINEAR, (forcing, slope, r.alpha))(
            xs, yms, prev.values[-1], h))
    except DomainError:  # alpha's first failure over every Gauss point, column by column, wins
        ex.compile_columns((r.alpha,), ("x",))(xs[1::4] + xs[2::4] + xs[3::4])
        raise


def residual_scan(s: PiecewiseSolution, d: Dods) -> float:
    """Max |ydot - f(x, y, y(g(x)))| over 48 off-node samples of every solved
    segment.  This is the project-wide correctness oracle: it only uses the
    stored solution and the system definition.  Each segment takes g at all
    its samples first, so the error raised can be a later sample's.  The
    mesh of d's delay has g(x_n) = x_{n-1}, so g maps segment n into
    [x_{n-2}, x_{n-1}), where value picks segment n - 1: one sweep of it
    reads every y(g(x)).  Other meshes (a loaded solution) are read by value."""
    pts, segs = s.mesh.points, s.segments
    worst = 0.0
    for n in range(1, len(segs)):
        xs = _golden_points(pts[n], pts[n + 1], 48)  # inside segment n, on no mesh point
        xms = d.delay.delayed_points(xs)
        ys, dys = zip(*segs[n]._read(xs, True))
        inside = all(pts[n - 1] <= xm < pts[n] for xm in xms)
        yms = segs[n - 1].values_at(xms) if inside else list(map(s.value, xms))
        worst = max(worst, _max_residual(d, xs, ys, dys, yms))
    return worst
