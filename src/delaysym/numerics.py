"""Scalar numerical utilities: adaptive quadrature and root searches.

These are deliberately deterministic.  No randomized pivoting or retry logic
is used anywhere, so repeated calls with equal inputs return bitwise equal
results.
"""

from __future__ import annotations

from typing import Callable

from .errors import BracketNotFound, NonConvergence

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


def scan_bracket(f: Callable[[float], float], lo: float, hi: float,
                 subdivisions: int = 200) -> tuple[float, float]:
    """Locate the first sign change of f on [lo, hi] by a uniform scan."""
    prev_x = lo
    prev_f = f(lo)
    if prev_f == 0.0:
        return lo, lo
    for i in range(1, subdivisions + 1):
        x = lo + (hi - lo) * i / subdivisions
        fx = f(x)
        if fx == 0.0:
            return x, x
        if (prev_f < 0.0) != (fx < 0.0):
            return prev_x, x
        prev_x, prev_f = x, fx
    raise BracketNotFound(f"no sign change of the target function on [{lo!r}, {hi!r}]")


def hybrid_root(f: Callable[[float], float], lo: float, hi: float,
                residual_tol: float = 1e-13, max_iter: int = 200) -> float:
    """Root of f inside a bracketing interval.

    Bisection narrows the bracket; once it is small a guarded secant step
    takes over and runs until the bracket cannot shrink any further (or
    max_iter evaluations are spent).  Steps that would leave the bracket fall
    back to bisection, so the search cannot escape [lo, hi].  The point with
    the smallest |f| is returned when that is within residual_tol.
    """
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
    # phase one: bisection down to a narrow interval
    while b - a > 1e-6 * (1.0 + abs(a) + abs(b)) and used < max_iter:
        m = 0.5 * (a + b)
        fm = f(m)
        used += 1
        if abs(fm) < abs(best_f):
            best_x, best_f = m, fm
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    # phase two: guarded secant inside the bracket, where f is near linear,
    # until the bracket is exhausted at machine precision.  Stopping at
    # residual_tol instead would leave an absolute error that callers
    # multiply by large factors
    while used < max_iter:
        if fb != fa:
            x = b - fb * (b - a) / (fb - fa)
        else:
            x = 0.5 * (a + b)
        if not (a < x < b):
            x = 0.5 * (a + b)
        if x == a or x == b:  # interval exhausted at machine precision
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
    if abs(best_f) <= residual_tol:
        return best_x
    raise NonConvergence(
        f"root refinement stalled at {best_x!r} with residual {best_f!r}")
