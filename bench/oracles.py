"""Computations made apart from the program, with `math` and `cmath` only.

Closed forms and their slopes, the cubic Hermite interpolation floor a
marched solution cannot beat, the affine mesh chain, the characteristic
equation, and the reduction families' existence and amplitude equations.
Nothing here imports delaysym: solutions are read through their public
attributes (segments, nodes, values) only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

from harness import require

# a marched value may sit this many cumulative Hermite floors from the
# closed form (RK4 adds its own fourth-order truncation error, which depends
# on one derivative more); rounding adds ROUND_REL of the largest |y| so far
VALUE_FLOORS = {"exact-linear": 16.0, "rk4": 512.0}
ROUND_REL = 1e-11
# residual_scan may reach this many (slope floor + value error / gap)
RESIDUAL_FLOORS = 8.0
# exact-linear against fine-step RK4 on histories without a closed form
AGREE_REL = 1e-9

_T_SLOPE = 0.5 - 0.5 / math.sqrt(3.0)  # where the Hermite slope error peaks


@dataclass(frozen=True)
class Closed:
    """A closed form y(x) with its slope, evaluated by the benchmark."""

    label: str
    f: Callable[[float], float]
    df: Callable[[float], float]


def exp_form(a: float) -> Closed:
    return Closed(f"{a!r}*exp(x)", lambda x: a * math.exp(x), lambda x: a * math.exp(x))


def linear_form(a: float, b: float) -> Closed:
    return Closed(f"{a!r}*x + {b!r}", lambda x: a * x + b, lambda x: a)


def xlnx_form(a: float, amp: float) -> Closed:
    return Closed(f"{a!r}*x*ln(x) + {amp!r}*x",
                  lambda x: a * x * math.log(x) + amp * x,
                  lambda x: a * (math.log(x) + 1.0) + amp)


def spiral_form(amp: float, b: float) -> Closed:
    def f(x: float) -> float:
        return amp * math.sqrt(1.0 + x * x) * math.exp(b * math.atan(x))

    def df(x: float) -> float:
        return amp * math.exp(b * math.atan(x)) * (x + b) / math.sqrt(1.0 + x * x)

    return Closed(f"{amp!r}*sqrt(1 + x^2)*exp({b!r}*atan(x))", f, df)


def smoothing_form(c: float) -> Closed:
    """First interval of y' = y - y(x - 1) with history c*(x + 1)^2."""
    return Closed(f"{c!r}*(-exp(x) + (x + 1)^2 + 1)",
                  lambda x: c * (-math.exp(x) + (x + 1.0) ** 2 + 1.0),
                  lambda x: c * (-math.exp(x) + 2.0 * (x + 1.0)))


# ---------------------------------------------------------------------------
# amplitudes of the invariant closed forms, derived by substituting the
# ansatz into the equation by hand


def a35_amplitude(c1: float, c2: float) -> float:
    """A*exp(x) solves y' = (y - y(x - C2))/C2 + C1*exp(x)."""
    return c1 * c2 / (c2 - 1.0 + math.exp(-c2))


def a314_rate(c1: float, c2: float) -> float:
    """a*x*ln(x) + A*x solves y' = (y - y(C2 x))/(x - C2 x) + C1."""
    return c1 / (1.0 + c2 * math.log(c2) / (1.0 - c2))


def a37_amplitude(c1: float, c2: float, b: float) -> float:
    """A*sqrt(1 + x^2)*exp(b atan x) solves the Moebius case; with
    t = atan(C2) the shift theta -> theta - t gives A*(b - cot t +
    exp(-b t)/sin t) = C1."""
    t = math.atan(c2)
    return c1 / (b - 1.0 / math.tan(t) + math.exp(-b * t) / math.sin(t))


# ---------------------------------------------------------------------------
# marched solutions against closed forms


def _hermite(x0, x1, y0, y1, d0, d1, x):
    h = x1 - x0
    t = (x - x0) / h
    h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
    h10 = t * (1.0 - t) ** 2
    h01 = t * t * (3.0 - 2.0 * t)
    h11 = t * t * (t - 1.0)
    value = h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1
    g00 = 6.0 * t * (t - 1.0) / h
    g10 = (1.0 - t) * (1.0 - 3.0 * t)
    g01 = -g00
    g11 = t * (3.0 * t - 2.0)
    slope = g00 * y0 + g10 * d0 + g01 * y1 + g11 * d1
    return value, slope


def hermite_floors(cf: Closed, nodes) -> tuple[float, float]:
    """Largest value and slope error of the cubic Hermite interpolant built
    from exact data at `nodes`: the floor no solver storing Hermite nodes can
    get under."""
    vfloor = dfloor = 0.0
    for x0, x1 in zip(nodes, nodes[1:]):
        y0, y1, d0, d1 = cf.f(x0), cf.f(x1), cf.df(x0), cf.df(x1)
        mid = 0.5 * (x0 + x1)
        vfloor = max(vfloor, abs(_hermite(x0, x1, y0, y1, d0, d1, mid)[0] - cf.f(mid)))
        for t in (_T_SLOPE, 1.0 - _T_SLOPE):
            x = x0 + t * (x1 - x0)
            dfloor = max(dfloor, abs(_hermite(x0, x1, y0, y1, d0, d1, x)[1] - cf.df(x)))
    return vfloor, dfloor


def check_closed_form(sol, cf: Closed, scheme: str, first: int = 0,
                      last: Optional[int] = None) -> float:
    """Every node value of segments first..last within a multiple of the
    cumulative Hermite floor of the closed form; returns the bound that
    residual_scan must meet on the same solution."""
    floors = VALUE_FLOORS[scheme]
    segments = sol.segments
    last = len(segments) - 1 if last is None else last
    acc = 0.0
    ymax = 0.0
    rbound = 0.0
    dmax = 0.0
    for n in range(first, last + 1):
        seg = segments[n]
        vfloor, dfloor = hermite_floors(cf, seg.nodes)
        acc += vfloor
        gap = seg.nodes[-1] - seg.nodes[0]
        for x, y in zip(seg.nodes, seg.values):
            want = cf.f(x)
            ymax = max(ymax, abs(want))
            dmax = max(dmax, abs(cf.df(x)))
            tol = floors * acc + ROUND_REL * (1.0 + ymax)
            require(abs(y - want) <= tol,
                    f"y({x!r}) = {y!r}, closed form {cf.label} gives {want!r} "
                    f"(segment {n}, tolerance {tol:.3g})")
        if n > 0:
            rbound = max(rbound, dfloor + floors * acc / gap)
    return RESIDUAL_FLOORS * rbound + ROUND_REL * 100.0 * (1.0 + dmax)


def check_agreement(sol, ref) -> None:
    """Exact-linear against a fine-step RK4 reference on the same mesh:
    values at the mesh points and at the coarse solution's nodes."""
    require(len(sol.segments) == len(ref.segments), "segment counts differ")
    ymax = max(abs(v) for seg in ref.segments for v in seg.values)
    for n, (seg, rseg) in enumerate(zip(sol.segments, ref.segments)):
        stride = (len(rseg.nodes) - 1) // (len(seg.nodes) - 1)
        for j, (x, y) in enumerate(zip(seg.nodes, seg.values)):
            want = rseg.values[j * stride]
            require(abs(rseg.nodes[j * stride] - x) <= 1e-12 * (1.0 + abs(x)),
                    "reference nodes do not line up")
            require(abs(y - want) <= AGREE_REL * (1.0 + ymax),
                    f"segment {n}: y({x!r}) = {y!r}, fine-step RK4 gives {want!r}")


# ---------------------------------------------------------------------------
# meshes and characteristic roots


def affine_chain(q: float, tau: float, x0: float, n: int) -> list[float]:
    """x_-1 = q x0 - tau, x_0 = x0, x_{k+1} = (x_k + tau)/q."""
    pts = [q * x0 - tau, x0]
    for _ in range(n):
        pts.append((pts[-1] + tau) / q)
    return pts


def check_chain(points, want) -> None:
    require(len(points) == len(want), f"{len(points)} mesh points, expected {len(want)}")
    for got, exp in zip(points, want):
        require(abs(got - exp) <= 1e-12 * (1.0 + abs(exp)),
                f"mesh point {got!r}, affine chain gives {exp!r}")


def check_char_root(z: complex, lam: complex, c: float, k: int) -> None:
    """exp(z) = 1 + z, lambda = -z/C, and branch k in the upper half plane."""
    require(abs(cmath.exp(z) - 1.0 - z) <= 1e-12,
            f"branch {k}: |exp(z) - 1 - z| = {abs(cmath.exp(z) - 1.0 - z):.3g}")
    require(abs(lam * c + z) <= 1e-12 * (1.0 + abs(z)), f"branch {k}: lambda != -z/C")
    if k == 0:
        require(z == 0, "branch 0 must be the double root z = 0")
    else:
        require(2.0 * math.pi * k - math.pi < z.imag < 2.0 * math.pi * k + math.pi,
                f"branch {k}: Im z = {z.imag!r} outside its strip")


# ---------------------------------------------------------------------------
# reduction families: existence and amplitude equations


def a414_rate_min(c: float) -> float:
    """Minimum over a of a - 1/C + sqrt(1 + C^2)/C exp(-a atan C); the
    spiral family of A4_14 exists only if it is <= 0."""
    t = math.atan(c)
    k = math.sqrt(1.0 + c * c) / c
    a_star = math.log(k * t) / t  # where 1 = k t exp(-a t)
    return a_star - 1.0 / c + k * math.exp(-a_star * t)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(a) + abs(b))
