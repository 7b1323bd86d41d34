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
from collections.abc import Callable

from . import expr as ex
from .delay import _check_count
from .dods import _AGREE, Dods, homogenized, _expr_with, _window_for
from .errors import (DegenerateRoot, DivergenceWarning, DomainError, NonConvergence,
                     NotASolution, OutOfRange, ParameterDomainError, UnsupportedFlow)
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
    r: ex.Expr | PiecewiseSolution

    def __post_init__(self) -> None:
        ex.check_variables(self.p, {"x"}, "p may only depend on x")
        if not isinstance(self.r, PiecewiseSolution):
            ex.check_variables(self.r, {"x"}, "r may only depend on x")


class VectorField(ex.Record):
    xi: ex.Expr
    eta: ex.Expr | AffineEta
    name: str = ""

    def __post_init__(self) -> None:
        ex.check_variables(self.xi, {"x"}, "xi may only depend on x")
        if not isinstance(self.eta, AffineEta):
            ex.check_variables(self.eta, {"x", "y"}, "eta may only depend on x and y")

    @functools.cached_property
    def _trees(self) -> tuple[ex.Expr, ...]:
        """xi(x), xi(xm), eta(x, y), eta(xm, ym), eta_x, eta_y and xi'(x) as
        trees over x, y, xm and ym.  A computed r has no tree: its value at x
        and xm and its slope at x are the variables r, r_m and r_x."""
        eta = self.eta
        if isinstance(eta, AffineEta):
            # p y + r in the order of operations of the per-term formulas
            p, y = eta.p, ex.Var("y")
            if _computed_r(self) is not None:
                r, r_x = ex.Var("r"), ex.Var("r_x")
            else:
                r, r_x = eta.r, _deriv(eta.r, "x")
            eta = ex.Binary("+", ex.Binary("*", p, y), r)
            eta_x = ex.Binary("+", ex.Binary("*", _deriv(p, "x"), y), r_x)
            eta_y = p
        else:
            eta_x, eta_y = _deriv(eta, "x"), _deriv(eta, "y")
        return (self.xi, ex.substitute(self.xi, _AT_DELAYED), eta,
                ex.substitute(eta, _AT_DELAYED), eta_x, eta_y, _deriv(self.xi, "x"))


def _computed_r(v: VectorField) -> PiecewiseSolution | None:
    if isinstance(v.eta, AffineEta) and isinstance(v.eta.r, PiecewiseSolution):
        return v.eta.r
    return None


def _deriv(e: ex.Expr, name: str) -> ex.Expr:
    return ex.fold(ex.differentiate(e, name))


class Invariance(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"
    NOT_INVARIANT = "not-invariant"


# The prolongation at a point is one compiled call: the kernel of a field on
# a system takes (x, y, xm, ym, ydot, g'(x)) and returns m_x, m_y, m_xm,
# m_ym, xi(x), xi(xm), eta(x, y), eta(xm, ym), eta_x, eta_y, xi'(x), pr1, pr2
# and the seven terms whose largest magnitude is the scale (zeta, the four
# products, xi(xm) and xi g'), evaluated in that order from shared
# subexpressions.  An eta whose r is a computed solution takes three reads of
# it, r(x), r(xm) and r'(x), after the six point arguments; p is compiled in
# the kernel like any other tree.  The kernel's statements hold argument i in
# the variable a<i> (expr._emit); _ARG names them, then phase 2's <name>~.

_KERNEL_ARGS = ("x", "y", "xm", "ym", "ydot", "gp")
_OUTSIDE_ARGS = ("r", "r_m", "r_x")
_FRESH = ("y~", "ym~", "ydot~", "xm~", "r_m~")
_ARG = {name: f"a{i}" for i, name in enumerate(_KERNEL_ARGS + _OUTSIDE_ARGS + _FRESH)}
_AT_DELAYED = {"x": ex.Var("xm"), "y": ex.Var("ym"), "r": ex.Var("r_m")}


def _kernel_trees(partials: tuple[ex.Expr, ...], trees: tuple[ex.Expr, ...], computed: bool,
                  ydot: str = "ydot") -> tuple[tuple[ex.Expr, ...], tuple[str, ...]]:
    """The kernel's twenty trees from a system's manifold_partials and a
    field's _trees, slope ydot, and its arguments, r's reads last if computed."""
    xi, xi_m, eta, eta_m, eta_x, eta_y, xi_prime = trees
    B, ydot = ex.Binary, ex.Var(ydot)
    # the arithmetic of the per-term formulas, in their order of operations
    zeta = B("-", B("+", eta_x, B("*", eta_y, ydot)), B("*", ydot, xi_prime))
    terms = (zeta, B("*", xi, partials[0]), B("*", eta, partials[1]),
             B("*", xi_m, partials[2]), B("*", eta_m, partials[3]))
    xi_g = B("*", xi, ex.Var("gp"))
    pr1 = B("-", zeta, B("+", B("+", B("+", terms[1], terms[2]), terms[3]), terms[4]))
    pr2 = B("-", xi_m, xi_g)
    return (partials + trees + (pr1, pr2) + terms + (xi_m, xi_g),
            _KERNEL_ARGS + _OUTSIDE_ARGS if computed else _KERNEL_ARGS)


# Kernels and loops are cached by the interned trees of the system's partials
# and the field's, not by object: catalog() and a parameter sweep rebuild
# equal systems and fields, and one field, such as a wrong generator, meets
# many systems.  _computed_r alone says if r is computed; its reads are passed
# in at each call, so an entry holds trees and a function, never a system.


def _kernel(v: VectorField, d: Dods) -> Callable[..., tuple[float, ...]]:
    """The prolongation kernel of v on d, from the cache."""
    return _compile_kernel(d.manifold_partials, v._trees, _computed_r(v) is not None)


@functools.lru_cache(maxsize=256)
def _compile_kernel(partials: tuple[ex.Expr, ...], trees: tuple[ex.Expr, ...], computed: bool
                    ) -> Callable[..., tuple[float, ...]]:
    return ex.compile_many(*_kernel_trees(partials, trees, computed))


def prolong_apply(v: VectorField, d: Dods,
                  point: tuple[float, float, float, float, float]
                  ) -> tuple[float, float]:
    """Apply the prolonged field to (F1, F2) at (x, y, xm, ym, ydot)."""
    x, y, xm, ym, ydot = point
    kernel, r = _kernel(v, d), _computed_r(v)
    gp = d.delay.derivative(x)
    reads = () if r is None else (r.value(x), r.value(xm), r.eval(x)[2])
    return kernel(x, y, xm, ym, ydot, gp, *reads)[11:13]


# check_invariance is one generated function per (field, system), with the
# kernel's statements inline.  It draws as random.Random.uniform does, so the
# draw stream is the caller's.  A sample whose calls or statements raise
# DomainError or OutOfRange or overflow is skipped, and so is one whose pr1
# or pr2 is not finite (p - p is not 0.0): a NaN fails every comparison, so
# it would read as zero.  The judge calls no builtin, yet worst and max_on
# have the bits of abs and max: 0.0 - p makes -0.0 +0.0, and max keeps its
# first argument unless the second is larger.  Finite pr1 and pr2 make the
# seven terms finite, as each enters a sum or difference, so the scale is
# taken only when worst > _AGREE.  While every sample passes, phase 2
# perturbs each as soon as it passes, until one perturbation fails.  A
# perturbation reruns only the nodes that contain its fresh variables:
# interned, the rest are the point's, which ran without raising at the same
# values.  One that changes no judged tree is left out; no call or read of r
# overflows.

_LOOP = """\
width = hi - lo
max_on = 0.0
on_ok = True
weak = False
accepted = 0
for _ in range(80 * samples):
    if accepted == samples:
        break
    {x} = lo + width * random()
{breaks}    {y} = -2.0 + 4.0 * random()
    {ym} = -2.0 + 4.0 * random()
    try:
        {xm} = delayed_point({x})
        {ydot} = rhs({x}, {y}, {ym})
        {gp} = derivative({x})
{statements}    except _SKIPPED:
        continue
    if not ({finite}):
        continue
{worst}    accepted += 1
    if worst > max_on: max_on = worst
    on_ok = on_ok and ({passes})
    if on_ok and not weak:
        sign = 1.0 if accepted % 2 else -1.0
{perturb}if not accepted:
    return None
if not on_ok:
    return max_on, _NOT_INVARIANT
return max_on, _WEAK if weak else _STRONG"""
# the judge of a point: pr1 and pr2 finite, worst = max(abs(pr1), abs(pr2)),
# and the test it passes: worst within _AGREE, absolute or relative to its terms
_FINITE = "{0} - {0} == 0.0 and {1} - {1} == 0.0"
_WORST = ("worst = {0} if {0} > 0.0 else 0.0 - {0}\nother = {1} if {1} > 0.0 else 0.0 - {1}\n"
          "if other > worst: worst = other")
_PASSES = f"worst <= {_AGREE!r} or worst <= {_AGREE!r} * (1.0 + max(abs({{}})))"
_LOOP_GLOBALS = {**ex._COMPILE_GLOBALS, "_SKIPPED": (DomainError, OutOfRange, OverflowError),
                 "_STRONG": Invariance.STRONG,
                 "_WEAK": Invariance.WEAK, "_NOT_INVARIANT": Invariance.NOT_INVARIANT}
# phase 2's moves: each sets <name>~ for each name it moves (r_m if computed)
_MOVES = ((("y", "{y} + sign"),), (("ym", "{ym} + sign"),), (("ydot", "{ydot} + sign"),),
          (("xm", "{xm} + sign * ({x} - {xm}) / 2.0"), ("r_m", "r_value({xm~})")))


def _block(depth: int, *lines: str) -> str:
    """A field of _LOOP: the lines at depth levels of four spaces."""
    return "".join(f"{'    ' * depth}{line}\n" for line in lines)


def _perturbations(partials: tuple[ex.Expr, ...], trees: tuple[ex.Expr, ...], computed: bool):
    """The kernel's constants and, for the point and then each move that
    changes a judged tree (pr1, pr2 or a term), the lines that set its
    <name>~, the statements of its nodes holding one bar float() coercions,
    and its nine judged names; one _emit, so untouched nodes keep their name."""
    kernel = _kernel_trees(partials, trees, computed)[0]
    roots, moves = list(kernel), [[]]
    for move in _MOVES:
        fresh = {name: ex.Var(f"{name}~") for name, _ in move if computed or name != "r_m"}
        judged = _kernel_trees(*(tuple(ex.substitute(t, fresh) for t in part)
                                 for part in (partials, trees)), computed,
                               "ydot~" if "ydot" in fresh else "ydot")[0][11:]
        if judged != kernel[11:]:
            roots += judged
            moves.append([f"{_ARG[name + '~']} = {value.format(**_ARG)}"
                          for name, value in move if name in fresh])
    lines, outputs, consts, ends = ex._emit(roots, tuple(_ARG))
    coerced, cuts = {f"{a} = float({a})" for a in map(_ARG.get, _FRESH)}, ends[len(kernel) - 1::9]
    return consts, [(moved, [line for line in lines[a:b] if line not in coerced], outputs[i:i + 9])
                    for moved, a, b, i in zip(moves, [0, *cuts], cuts, range(11, len(outputs), 9))]


@functools.lru_cache(maxsize=256)
def _loop(partials: tuple[ex.Expr, ...], trees: tuple[ex.Expr, ...], computed: bool
          ) -> Callable[..., tuple[float, Invariance] | None]:
    """check_invariance of a system's partials and a field's trees as one
    function of (random, lo, hi, samples, delayed_point, rhs, derivative),
    and for a computed r also of (breaks, r_value, r_eval); it returns None
    when no sample was valid."""
    consts, ((_, lines, (pr1, pr2, *terms)), *blocks) = _perturbations(partials, trees, computed)
    reads = ["{r} = r_value({x})", "{r_m} = r_value({xm})", "{r_x} = r_eval({x})[2]"]
    source = _LOOP.format(
        **_ARG, finite=_FINITE.format(pr1, pr2), passes=_PASSES.format("), abs(".join(terms)),
        worst=_block(1, *_WORST.format(pr1, pr2).split("\n")),
        breaks=_block(1, f"if any(abs({_ARG['x']} - b) <= 1e-6 for b in breaks):", "    continue")
        if computed else "",
        statements=_block(2, *(read.format(**_ARG) for read in reads if computed), *lines),
        perturb="".join(_block(
            2, "try:", *(f"    {line}" for line in moves + statements),
            "except _SKIPPED:", "    pass", "else:",
            f"    if {_FINITE.format(p1, p2)}:",
            *(f"        {line}" for line in _WORST.format(p1, p2).split("\n")),
            f"        if not ({_PASSES.format('), abs('.join(terms))}):",
            "            weak = True", "            continue")
            for moves, statements, (p1, p2, *terms) in blocks))
    params = "random, lo, hi, samples, delayed_point, rhs, derivative"
    return ex._define(params + (", breaks, r_value, r_eval" if computed else ""),
                      source.split("\n"), consts, _LOOP_GLOBALS)


def check_invariance(v: VectorField, d: Dods, samples: int = 200,
                     window: tuple[float, float] | None = None
                     ) -> tuple[float, Invariance]:
    """Monte Carlo invariance test.

    Samples the solution manifold (xm = g(x), ydot = f) from random.Random(7)
    and reports the largest applied prolongation value there, then perturbs
    y, ym, ydot by one unit and xm by half a gap to separate identities that
    hold everywhere from those relying on the manifold equations.
    Tolerances scale with the largest term entering each evaluation, so
    cancellation is measured relative to what was cancelled.  A point that
    cannot be evaluated, or whose terms are not finite, is not counted.
    """
    _check_count("samples", samples)
    lo, hi = window if window is not None else _window_for(d.domain)
    r = _computed_r(v)
    reads = () if r is None else (r.mesh.points, r.value, r.eval)
    judged = _loop(d.manifold_partials, v._trees, r is not None)(
        random.Random(7).random, lo, hi, samples, d.delay.delayed_point, d.rhs_fn,
        d.delay.derivative, *reads)
    if judged is None:
        raise DomainError("no valid sample points in the window")
    return judged


def vertical_from_solution(s: PiecewiseSolution, d: Dods) -> VectorField:
    """chi(x) d_y built from a computed solution of the homogeneous part;
    adding epsilon * chi to any solution preserves the full system."""
    worst = residual_scan(s, homogenized(d))
    if worst > 1e-8:
        raise NotASolution(
            f"candidate leaves a homogeneous residual of {worst!r}, "
            "larger than 1e-08")
    return VectorField(ex.Num(0.0), AffineEta(ex.Num(0.0), s), name="chi d_y")


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
    eta, p = v._trees[2], v._trees[5]  # eta(x, y) and its slope in y

    if xi0 != 0.0:
        if not ex.is_zero(eta):
            raise UnsupportedFlow("mixed xi and eta flows are not available")
        qt = d.delay.affine_parameters()
        if qt is None or qt[0] != 1.0:
            raise UnsupportedFlow("x translation needs a constant delay")
        if "x" in ex.variables_of(d.rhs.as_expr()):
            raise UnsupportedFlow(
                "x translation needs a right hand side independent of x")
        return s.shifted(eps * xi0)

    if "y" in ex.variables_of(p):
        raise UnsupportedFlow("eta is not affine in y; no closed flow")
    if not ex.is_constant(p):
        raise UnsupportedFlow("the flow is closed form only for constant p")
    p0 = ex.evaluate(p, {})
    grow = math.exp(eps * p0)
    gain = eps if p0 == 0.0 else (grow - 1.0) / p0

    r = _computed_r(v)
    if r is None:
        offset = ex.fold(ex.Binary("*", ex.Num(gain), ex.substitute(eta, {"y": ex.Num(0.0)})))
        return s.mapped(grow, offset)

    segs = []
    for seg in s.segments:
        values = []
        derivs = []
        last = len(seg.nodes) - 1
        for j, (u, y, dyv) in enumerate(zip(seg.nodes, seg.values, seg.derivs)):
            rv, rdl, rdr = r.eval(u)
            rd = rdl if j == last else rdr
            values.append(grow * y + gain * rv)
            derivs.append(grow * dyv + gain * rd)
        segs.append(Segment(seg.nodes, tuple(values), tuple(derivs)))
    return PiecewiseSolution(s.mesh, tuple(segs))


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
    _check_count("kmax", kmax, 0)
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
    if root.lam.imag == 0.0:
        raise DegenerateRoot(
            f"branch k = {root.k} has a real root; the pair of oscillatory "
            "fields degenerates")
    ab = {"a": root.lam.real, "b": root.lam.imag}
    return (VectorField(ex.Num(0.0), _expr_with("exp(a*x)*cos(b*x)", ab), name="X5"),
            VectorField(ex.Num(0.0), _expr_with("exp(a*x)*sin(b*x)", ab), name="X6"))


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
    _check_count("n", n, 0)
    if n > 40:
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
