"""Scalar numerical utilities: adaptive quadrature and root searches.

These are deliberately deterministic.  No randomized pivoting or retry logic
is used anywhere, so repeated calls with equal inputs return bitwise equal
results.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import BracketNotFound, NonConvergence, ParameterDomainError

__all__ = ["adaptive_simpson", "scan_bracket", "hybrid_root"]


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float, fb: float,
             m: float, fm: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, fa, m, fm, lm, flm)
    right = _simpson(f, m, fm, b, fb, rm, frm)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return (_adapt(f, a, fa, m, fm, lm, flm, left, half, depth - 1)
            + _adapt(f, m, fm, b, fb, rm, frm, right, half, depth - 1))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-12, max_depth: int = 30) -> float:
    """Integrate f over [a, b] to the given absolute tolerance."""
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(f, a, fa, b, fb, m, fm)
    return sign * _adapt(f, a, fa, b, fb, m, fm, whole, tol, max_depth)


def scan_bracket(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Locate the first sign change of f on the finite [lo, hi] by a
    uniform scan of 200 cells."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterDomainError(f"scan_bracket needs a finite bracket, got [{lo!r}, {hi!r}]")
    prev_x = lo
    prev_f = f(lo)
    if prev_f == 0.0:
        return lo, lo
    for i in range(1, 201):
        x = lo + (hi - lo) * i / 200
        fx = f(x)
        if fx == 0.0:
            return x, x
        if (prev_f < 0.0) != (fx < 0.0):
            return prev_x, x
        prev_x, prev_f = x, fx
    raise BracketNotFound(f"no sign change of the target function on [{lo!r}, {hi!r}]")


def hybrid_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f inside a finite bracketing interval.

    One loop takes the midpoint while the bracket [a, b] is wider than
    1e-6 (1 + |a| + |b|), and a guarded secant step after that, until the
    bracket cannot shrink any further (or 200 evaluations are spent).  A
    secant step that would leave the bracket falls back to the midpoint, so
    the search cannot escape [lo, hi].  The point with the smallest |f| is
    returned when that is within 1e-13, else NonConvergence is raised,
    naming the final bracket and the evaluations used.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterDomainError(f"hybrid_root needs a finite bracket, got [{lo!r}, {hi!r}]")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketNotFound(f"interval [{lo!r}, {hi!r}] does not bracket a root")
    a, fa, b, fb = lo, flo, hi, fhi
    best_x, best_f = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    used = 0
    while used < 200:
        x = 0.5 * (a + b)
        if not b - a > 1e-6 * (1.0 + abs(a) + abs(b)):
            # a narrow bracket, where f is near linear: a guarded secant step,
            # until the bracket is exhausted at machine precision.  Stopping
            # at 1e-13 instead would leave an absolute error that callers
            # multiply by large factors
            s = b - fb * (b - a) / (fb - fa) if fb != fa else x
            if a < s < b:
                x = s
            if x == a or x == b:
                break
        fx = f(x)
        used += 1
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        if fx == 0.0:
            return x
        if (fa < 0.0) != (fx < 0.0):
            b, fb = x, fx
        else:
            a, fa = x, fx
    if abs(best_f) <= 1e-13:
        return best_x
    raise NonConvergence(
        f"root refinement stalled on the bracket [{a!r}, {b!r}] after {used + 2} "
        f"evaluations; the smallest residual was {best_f!r}")
