"""Lie point symmetries of delay systems.

A vector field xi(x) d_x + eta(x, y) d_y acts on both points of the delay
pair, so its prolongation carries companion coefficients at (xm, ym) plus
the usual first order slope coefficient:

    zeta = eta_x + eta_y ydot - ydot xi'(x).

Applied to the system written as F1 = ydot - M(x, y, xm, ym) = 0,
F2 = xm - g(x) = 0, the field is a symmetry when both applied values vanish
on the solution manifold.  M must keep xm symbolic: the partial derivatives
with respect to x and xm cancel pairwise in ways that are invisible after
substituting xm = g(x).
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import random
import warnings
from typing import Callable, Optional, Union

from . import expr as ex
from .dods import Dods, homogenized, _window_for
from .errors import (DegenerateRoot, DivergenceWarning, DomainError,
                     MeshRangeError, NonConvergence, NotASolution, OutOfRange,
                     ParameterDomainError, UnsupportedFlow)
from .steps import PiecewiseSolution, Segment, residual_scan

__all__ = [
    "AffineEta",
    "VectorField",
    "Invariance",
    "prolong_apply",
    "check_invariance",
    "vertical_from_solution",
    "flow",
    "CharacteristicRoot",
    "char_roots",
    "exp_symmetry_fields",
    "bernoulli_gf",
]


class AffineEta(ex.Record):
    """eta = p(x) y + r(x) with r given in closed form or as a computed
    piecewise solution."""

    p: ex.Expr
    r: Union[ex.Expr, PiecewiseSolution]

    def __post_init__(self) -> None:
        ex.check_variables(self.p, {"x"}, "p may only depend on x")
        if not isinstance(self.r, PiecewiseSolution):
            ex.check_variables(ex.as_expr(self.r, ("x",)), {"x"}, "r may only depend on x")


class VectorField(ex.Record):
    xi: ex.Expr
    eta: Union[ex.Expr, AffineEta]
    name: str = ""

    def __post_init__(self) -> None:
        ex.check_variables(self.xi, {"x"}, "xi may only depend on x")
        if not isinstance(self.eta, AffineEta):
            ex.check_variables(self.eta, {"x", "y"}, "eta may only depend on x and y")

    # -- pointwise evaluation -------------------------------------------

    @functools.cached_property
    def _compiled(self) -> tuple[Callable[..., float], ...]:
        """(xi(x), xi'(x), eta(x, y), eta_x(x, y), eta_y(x, y)), compiled on
        first use."""
        x = ("x",)
        xi = ex.compile(self.xi, x)
        xi_prime = ex.compile(_deriv(self.xi, "x"), x)
        if not isinstance(self.eta, AffineEta):
            xy = ("x", "y")
            return (xi, xi_prime, ex.compile(self.eta, xy),
                    ex.compile(_deriv(self.eta, "x"), xy),
                    ex.compile(_deriv(self.eta, "y"), xy))
        p = ex.compile(self.eta.p, x)
        p_x = ex.compile(_deriv(self.eta.p, "x"), x)
        r = self.eta.r
        if isinstance(r, PiecewiseSolution):
            r_value, r_slope = r.value, lambda u: r.eval(u)[2]
        else:
            r = ex.as_expr(r, x)
            r_value, r_slope = ex.compile(r, x), ex.compile(_deriv(r, "x"), x)
        return (xi, xi_prime,
                lambda u, y: p(u) * y + r_value(u),
                lambda u, y: p_x(u) * y + r_slope(u),
                lambda u, y: p(u))

    def xi_at(self, x: float) -> float:
        return self._compiled[0](x)

    def xi_prime_at(self, x: float) -> float:
        return self._compiled[1](x)

    def eta_at(self, x: float, y: float) -> float:
        return self._compiled[2](x, y)

    def eta_x_at(self, x: float, y: float) -> float:
        return self._compiled[3](x, y)

    def eta_y_at(self, x: float, y: float) -> float:
        return self._compiled[4](x, y)


def _deriv(e: ex.Expr, name: str) -> ex.Expr:
    return ex.fold(ex.differentiate(e, name))


class Invariance(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"
    NOT_INVARIANT = "not-invariant"


def _prolong_terms(v: VectorField, d: Dods,
                   point: tuple[float, float, float, float, float]
                   ) -> tuple[float, float, float]:
    x, y, xm, ym, ydot = point
    m_x, m_y, m_xm, m_ym = [p(x, y, xm, ym) for p in d.manifold_partial_fns]

    xi = v.xi_at(x)
    xi_m = v.xi_at(xm)
    eta = v.eta_at(x, y)
    eta_m = v.eta_at(xm, ym)
    zeta = v.eta_x_at(x, y) + v.eta_y_at(x, y) * ydot - ydot * v.xi_prime_at(x)

    terms = (zeta, xi * m_x, eta * m_y, xi_m * m_xm, eta_m * m_ym)
    pr1 = terms[0] - (terms[1] + terms[2] + terms[3] + terms[4])
    pr2 = xi_m - xi * d.delay.derivative(x)
    scale = max(abs(t) for t in terms + (xi_m, xi * d.delay.derivative(x)))
    return pr1, pr2, scale


def prolong_apply(v: VectorField, d: Dods,
                  point: tuple[float, float, float, float, float]
                  ) -> tuple[float, float]:
    """Apply the prolonged field to (F1, F2) at (x, y, xm, ym, ydot)."""
    pr1, pr2, _ = _prolong_terms(v, d, point)
    return pr1, pr2


def _r_breakpoints(v: VectorField) -> tuple[float, ...]:
    if isinstance(v.eta, AffineEta) and isinstance(v.eta.r, PiecewiseSolution):
        return v.eta.r.mesh.points
    return ()


def _judge(v: VectorField, d: Dods,
           point: tuple[float, float, float, float, float]
           ) -> Optional[tuple[float, bool]]:
    """(largest applied value, whether it is within 1e-7 (1 + scale)) at a
    point, or None when the point cannot be evaluated or a term overflows:
    max() drops NaN, so a non-finite sample would otherwise read as zero."""
    try:
        pr1, pr2, scale = _prolong_terms(v, d, point)
    except (DomainError, OutOfRange, MeshRangeError):
        return None
    if not (math.isfinite(pr1) and math.isfinite(pr2) and math.isfinite(scale)):
        return None
    worst = max(abs(pr1), abs(pr2))
    return worst, worst <= 1e-7 * (1.0 + scale)


def check_invariance(v: VectorField, d: Dods, samples: int = 200,
                     window: Optional[tuple[float, float]] = None,
                     seed: int = 7) -> tuple[float, Invariance]:
    """Monte Carlo invariance test.

    Samples the solution manifold (xm = g(x), ydot = f) and reports the
    largest applied prolongation value there, then perturbs y, ym, ydot by
    one unit and xm by half a gap to separate identities that hold
    everywhere from those relying on the manifold equations.  Tolerances
    scale with the largest term entering each evaluation, so cancellation
    is measured relative to what was cancelled.  A point that cannot be
    evaluated, or whose terms are not finite, is not counted.
    """
    if samples < 1:
        raise ParameterDomainError("need at least one sample")
    lo, hi = window if window is not None else _window_for(d.domain)
    rng = random.Random(seed)
    breaks = _r_breakpoints(v)

    def fresh_point() -> Optional[tuple[float, float, float, float, float]]:
        x = rng.uniform(lo, hi)
        if any(abs(x - b) <= 1e-6 for b in breaks):
            return None
        y = rng.uniform(-2.0, 2.0)
        ym = rng.uniform(-2.0, 2.0)
        try:
            xm = d.delay.delayed_point(x)
            ydot = d.rhs_value(x, y, ym)
        except (DomainError, OutOfRange, MeshRangeError):
            return None
        return (x, y, xm, ym, ydot)

    max_on = 0.0
    on_ok = True
    on_points = []
    for _ in range(80 * samples):
        if len(on_points) == samples:
            break
        pt = fresh_point()
        judged = None if pt is None else _judge(v, d, pt)
        if judged is None:
            continue
        on_points.append(pt)
        max_on = max(max_on, judged[0])
        on_ok = on_ok and judged[1]
    if not on_points:
        raise DomainError("no valid sample points in the window")
    if not on_ok:
        return max_on, Invariance.NOT_INVARIANT

    for i, (x, y, xm, ym, ydot) in enumerate(on_points):
        sign = 1.0 if i % 2 == 0 else -1.0
        for pt in ((x, y + sign, xm, ym, ydot),
                   (x, y, xm, ym + sign, ydot),
                   (x, y, xm, ym, ydot + sign),
                   (x, y, xm + sign * (x - xm) / 2.0, ym, ydot)):
            judged = _judge(v, d, pt)
            if judged is not None and not judged[1]:
                return max_on, Invariance.WEAK
    return max_on, Invariance.STRONG


def vertical_from_solution(s: PiecewiseSolution, d: Dods) -> VectorField:
    """chi(x) d_y built from a computed solution of the homogeneous part;
    adding epsilon * chi to any solution preserves the full system."""
    worst = residual_scan(s, homogenized(d))
    if worst > 1e-8:
        raise NotASolution(
            f"candidate leaves a homogeneous residual of {worst!r}, "
            "larger than 1e-08")
    return VectorField(ex.Num(0.0), AffineEta(ex.Num(0.0), s), name="chi d_y")


def _affine_parts(eta: Union[ex.Expr, AffineEta]
                  ) -> tuple[ex.Expr, Union[ex.Expr, PiecewiseSolution]]:
    if isinstance(eta, AffineEta):
        return eta.p, eta.r
    p = _deriv(eta, "y")
    if "y" in ex.variables_of(p):
        raise UnsupportedFlow("eta is not affine in y; no closed flow")
    r = ex.fold(ex.substitute(eta, {"y": ex.Num(0.0)}))
    return p, r


def flow(v: VectorField, eps: float, s: PiecewiseSolution, d: Dods
         ) -> PiecewiseSolution:
    """Transport a solution along the one parameter group of v.

    Supported: vertical fields affine in y with constant p, which act
    segment by segment, and constant x-translations of systems whose right
    hand side does not depend on x and whose delay is x - tau, in whichever
    relation class it is written.
    Anything else raises UnsupportedFlow.
    """
    if not ex.is_constant(v.xi):
        raise UnsupportedFlow("xi must be constant to move the mesh rigidly")
    xi0 = ex.evaluate(v.xi, {})

    if xi0 != 0.0:
        if not _is_zero(v.eta):
            raise UnsupportedFlow("mixed xi and eta flows are not available")
        qt = d.delay.affine_parameters()
        if qt is None or qt[0] != 1.0:
            raise UnsupportedFlow("x translation needs a constant delay")
        if "x" in ex.variables_of(d.rhs.as_expr()):
            raise UnsupportedFlow(
                "x translation needs a right hand side independent of x")
        return s.shifted(eps * xi0)

    p, r = _affine_parts(v.eta)
    if not ex.is_constant(p):
        raise UnsupportedFlow("the flow is closed form only for constant p")
    p0 = ex.evaluate(p, {})
    grow = math.exp(eps * p0)
    gain = eps if p0 == 0.0 else (grow - 1.0) / p0

    if not isinstance(r, PiecewiseSolution):
        offset = ex.fold(ex.Binary("*", ex.Num(gain), r))
        return s.mapped(grow, offset)

    segs = []
    for seg in s.segments:
        values = []
        derivs = []
        last = len(seg.nodes) - 1
        for j, (u, y, dyv) in enumerate(zip(seg.nodes, seg.values, seg.derivs)):
            rv, rdl, rdr = r.eval(u)
            rd = rdr if j == 0 else rdl if j == last else rdr
            values.append(grow * y + gain * rv)
            derivs.append(grow * dyv + gain * rd)
        segs.append(Segment(seg.nodes, tuple(values), tuple(derivs)))
    return PiecewiseSolution(s.mesh, tuple(segs))


def _is_zero(eta: Union[ex.Expr, AffineEta]) -> bool:
    if isinstance(eta, AffineEta):
        return (_is_zero(eta.p)
                and not isinstance(eta.r, PiecewiseSolution)
                and _is_zero(eta.r))
    folded = ex.fold(eta)
    return isinstance(folded, ex.Num) and folded.value == 0.0


# ---------------------------------------------------------------------------
# exponential solutions of y' = (y - y(x - C))/C


class CharacteristicRoot(ex.Record):
    """Root of lambda = (1 - exp(-lambda C))/C, stored through
    z = -lambda C, which satisfies exp(z) = 1 + z."""

    C: float
    z: complex
    lam: complex
    k: int


def char_roots(C: float, kmax: int) -> tuple[CharacteristicRoot, ...]:
    """Branches k = 0..kmax of the characteristic equation, upper half
    plane; the k = 0 branch is the double root z = 0.

    Branch k is found by Newton's method on exp(z) - 1 - z from
    ln(2 pi k) + 2 pi i k, stopped once a step is at most 1e-15 |z|; the
    root must lie in the strip |Im z - 2 pi k| < pi that names its branch.
    """
    if not 0.0 < C < math.inf:
        raise ParameterDomainError(f"delay spacing must be positive and finite, got {C!r}")
    if kmax < 0:
        raise ParameterDomainError(f"kmax must be >= 0, got {kmax!r}")
    roots = [CharacteristicRoot(C, 0j, 0j, 0)]
    for k in range(1, kmax + 1):
        centre = 2.0 * math.pi * k
        z = complex(math.log(centre), centre)
        for _ in range(100):
            ez = cmath.exp(z)
            step = (ez - 1.0 - z) / (ez - 1.0)
            z -= step
            if abs(step) <= 1e-15 * abs(z):
                break
        else:
            raise NonConvergence(
                f"characteristic root for branch k = {k} did not converge "
                "after 100 iterations")
        if not abs(z.imag - centre) < math.pi:
            raise NonConvergence(
                f"Newton's method left the strip of branch k = {k}: "
                f"Im z = {z.imag!r}")
        roots.append(CharacteristicRoot(C, z, -z / C, k))
    if not cmath.isfinite(roots[-1].lam):  # |z| grows with k: the last is the largest
        raise DomainError(f"lambda = -z/C overflows at C = {C!r} for k <= {kmax}")
    return tuple(roots)


def exp_symmetry_fields(root: CharacteristicRoot) -> tuple[VectorField, VectorField]:
    """exp(a x) cos(b x) d_y and exp(a x) sin(b x) d_y for lambda = a + i b."""
    a, b = root.lam.real, root.lam.imag
    if b == 0.0:
        raise DegenerateRoot(
            f"branch k = {root.k} has a real root; the pair of oscillatory "
            "fields degenerates")
    cos_field = _expr_pair("exp(a*x)*cos(b*x)", a, b)
    sin_field = _expr_pair("exp(a*x)*sin(b*x)", a, b)
    return (VectorField(ex.Num(0.0), cos_field, name="X5"),
            VectorField(ex.Num(0.0), sin_field, name="X6"))


def _expr_pair(text: str, a: float, b: float) -> ex.Expr:
    e = ex.parse(text, ("x", "a", "b"))
    return ex.fold(ex.substitute(e, {"a": ex.Num(a), "b": ex.Num(b)}))


# ---------------------------------------------------------------------------
# Bernoulli partial sums of z/(1 - exp(-z))


@functools.lru_cache(maxsize=1)
def _bernoulli_numbers(n: int = 40) -> tuple[Fraction, ...]:
    # recurrence sum_{j<=m} C(m+1, j) B_j = 0, exact in rationals
    from fractions import Fraction  # here, not at start-up: it loads decimal
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * out[j]
        out.append(-acc / (m + 1))
    return tuple(out)


def bernoulli_gf(z: float, n: int) -> float:
    """Partial sum sum_{m=0}^{n} B_m (-z)^m / m!, converging to
    z/(1 - exp(-z)) for |z| < 2 pi."""
    if not 0 <= n <= 40:
        raise ParameterDomainError(f"truncation order must be in 0..40, got {n!r}")
    if abs(z) >= 2.0 * math.pi:
        warnings.warn(
            f"|z| = {abs(z)!r} is outside the radius of convergence 2*pi; "
            "the partial sum diverges", DivergenceWarning, stacklevel=2)
    numbers = _bernoulli_numbers()
    total = 0.0
    term = 1.0  # (-z)^m / m!
    for m in range(n + 1):
        if m > 0:
            term *= -z / m
        total += float(numbers[m]) * term
    return total
