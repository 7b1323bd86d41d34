"""Prolongations, invariance checks, flows, characteristic roots."""

import cmath
import functools
import gc
import importlib.util
import math
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys
import types
import warnings

import pytest

import delaysym.expr as ex
from delaysym.delay import AffineDelay, ConstantDelay, MoebiusDelay, QScaleDelay
from delaysym.dods import (
    CASE_IDS,
    CatalogCase,
    Dods,
    GeneralRhs,
    InitialCondition,
    LinearRhs,
    catalog,
    initial_condition,
)
from delaysym import steps, symmetry
from delaysym.errors import (
    DegenerateRoot,
    DelaySymError,
    DivergenceWarning,
    DomainError,
    MeshRangeError,
    NoDodsError,
    NotASolution,
    OutOfRange,
    ParameterDomainError,
    UnsupportedFlow,
)
from delaysym.steps import (PiecewiseSolution, Scheme, SolverConfig, residual_scan,
                            sample_expr, solve)
from delaysym.symmetry import (
    AffineEta,
    CharacteristicRoot,
    Invariance,
    VectorField,
    bernoulli_gf,
    char_roots,
    check_invariance,
    exp_symmetry_fields,
    flow,
    prolong_apply,
    vertical_from_solution,
)


def smoothing_instance():
    d = Dods(LinearRhs(ex.Num(1.0), ex.Num(-1.0), ex.Num(0.0)), ConstantDelay(1.0))
    return d, initial_condition("(x + 1)^2", d.delay, 0.0)


# classification of every catalog generator, frozen after hand checking the
# representative prolongations (see the strong entries cancel identically,
# the weak ones reduce to multiples of F1 or F2)
EXPECTED = {
    "A2_1": ("strong", "weak"),
    "A2_3": ("strong", "strong"),
    "A3_1": ("strong", "strong", "strong"),
    "A3_3": ("strong", "strong", "weak"),
    "A3_5": ("strong", "strong", "weak"),
    "A3_7": ("strong", "strong", "weak"),
    "A3_13": ("strong", "strong", "weak"),
    "A3_14": ("strong", "strong", "weak"),
    "A3_15": ("strong", "strong"),
    "A4_5": ("strong", "strong", "weak"),
    "A4_12": ("strong", "strong", "strong", "weak"),
    "A4_14": ("strong", "strong", "weak", "weak"),
    "A4_21": ("strong", "weak", "strong", "weak"),
}


class TestVectorField:
    def test_xi_depends_on_x_only(self):
        with pytest.raises(ParameterDomainError):
            VectorField(ex.parse("y", ("y",)), ex.Num(0.0))

    @pytest.mark.parametrize("build", [
        lambda: AffineEta(ex.Num(0.0), "x"),
        lambda: AffineEta("x", ex.Num(0.0)),
        lambda: VectorField("1", ex.Num(0.0)),
        lambda: VectorField(ex.Num(0.0), "y"),
    ])
    def test_text_is_not_a_tree(self, build):
        # text is parsed by the caller: a field never coerces it
        with pytest.raises(ParameterDomainError, match="expected an expression tree"):
            build()

    def test_eta_variables(self):
        with pytest.raises(ParameterDomainError):
            VectorField(ex.Num(0.0), ex.parse("ym", ("ym",)))

    def test_affine_eta_evaluation(self):
        # kernel outputs 6, 8 and 9 are eta, eta_x and eta_y at (x, y)
        v = VectorField(ex.Num(0.0), AffineEta(ex.parse("x"), ex.parse("x^2")))
        out = symmetry._kernel(v, smoothing_instance()[0])(2.0, 3.0, 1.0, 0.0, 0.0, 1.0)
        assert out[6] == 2 * 3 + 4
        assert out[9] == 2.0
        assert out[8] == 3 + 4.0

    def test_pickles_after_compiling(self):
        # compiled callables are dropped from the pickled state and compile
        # again on first use
        e = catalog(CatalogCase("A4_5", delay='general("x - 1 - 0.1*sin(x)")'))
        v = e.algebra[1]
        point = (1.3, 0.4, e.dods.delay.delayed_point(1.3), -0.2, 0.7)
        before = prolong_apply(v, e.dods, point)
        d2, v2 = pickle.loads(pickle.dumps((e.dods, v)))
        assert (d2, v2) == (e.dods, v)
        assert prolong_apply(v2, d2, point) == before

    def test_affine_eta_r_from_solution(self):
        s = sample_expr(ConstantDelay(1.0), "x^2", 0.0, 2)
        v = VectorField(ex.Num(0.0), AffineEta(ex.Num(0.0), s))
        # the three reads of a computed r follow the six point arguments
        reads = (s.value(0.5), s.value(-0.5), s.eval(0.5)[2])
        out = symmetry._kernel(v, smoothing_instance()[0])(0.5, 9.0, -0.5, 0.0, 0.0, 1.0, *reads)
        assert out[6] == pytest.approx(0.25, abs=1e-12)
        assert out[8] == pytest.approx(1.0, abs=1e-12)


class TestProlongation:
    def test_translation_cancels_identically(self):
        # d_x on a constant delay system with constant forcing: both applied
        # values vanish even off the solution manifold
        e = catalog("A3_1")
        v = e.algebra[2]
        for pt in ((0.5, 1.7, -0.6, 0.9, 2.2), (1.1, -0.3, 0.4, 2.0, -1.0)):
            pr1, pr2 = prolong_apply(v, e.dods, pt)
            assert abs(pr1) <= 1e-12
            assert abs(pr2) <= 1e-12

    def test_vertical_shift_needs_manifold(self):
        # d_y on the pure slope equation cancels only through the slope
        # structure, not pointwise in each term
        e = catalog("A4_12")
        v = e.algebra[2]  # d_y
        x, y, ym, ydot = 0.5, 1.0, 2.0, -1.0
        xm = e.dods.delay.delayed_point(x)
        pr1, pr2 = prolong_apply(v, e.dods, (x, y, xm, ym, ydot))
        assert abs(pr1) <= 1e-12 and abs(pr2) <= 1e-12

    def test_scaling_reduces_to_f1(self):
        # y d_y on the slope equation: applying the prolongation returns
        # ydot - M, a multiple of F1, so it vanishes on shell only
        e = catalog("A4_12")
        v = e.algebra[3]
        x = 0.7
        xm = e.dods.delay.delayed_point(x)
        y, ym = 1.3, -0.4
        on = e.dods.rhs_value(x, y, ym)
        pr1, _ = prolong_apply(v, e.dods, (x, y, xm, ym, on))
        assert abs(pr1) <= 1e-12
        pr1_off, _ = prolong_apply(v, e.dods, (x, y, xm, ym, on + 1.0))
        assert pr1_off == pytest.approx(1.0, abs=1e-12)

    def test_moebius_pole_raises_domain_error(self):
        # g'(x) = (1 + C^2)/(1 + Cx)^2 has A4_14's pole at x = -1, where
        # delayed_point raises the same error
        e = catalog("A4_14")
        with pytest.raises(DomainError) as raised:
            prolong_apply(e.algebra[3], e.dods, (-1.0, 0.5, -2.0, 0.2, 0.3))
        with pytest.raises(DomainError) as expected:
            e.dods.delay.delayed_point(-1.0)
        assert str(raised.value) == str(expected.value) == "moebius relation has a pole at x = -1.0"


class TestCheckInvariance:
    @pytest.mark.parametrize("cid", sorted(EXPECTED))
    def test_catalog_generators(self, cid):
        e = catalog(cid)
        got = []
        for v in e.algebra:
            mx, cls = check_invariance(v, e.dods, samples=120, window=e.window)
            assert mx <= 1e-7, (cid, v.name, mx)
            got.append(cls.value)
        assert tuple(got) == EXPECTED[cid]

    @pytest.mark.parametrize(
        "case",
        [
            CatalogCase("A3_3", {"a": 1.0}),
            CatalogCase("A3_3", {"a": -1.0}),
            CatalogCase("A3_7", {"b": 0.0}),
        ],
    )
    def test_parameter_variants(self, case):
        e = catalog(case)
        for v in e.algebra:
            mx, cls = check_invariance(v, e.dods, samples=80, window=e.window)
            assert mx <= 1e-7
            assert cls is not Invariance.NOT_INVARIANT

    def test_detects_non_symmetry(self):
        e = catalog("A2_3")
        bad = VectorField(ex.Num(0.0), ex.parse("y", ("x", "y")), name="y d_y")
        mx, cls = check_invariance(bad, e.dods, samples=80, window=e.window)
        assert cls is Invariance.NOT_INVARIANT
        assert mx >= 0.1

    def test_detects_non_symmetry_nonlinear_eta(self):
        e = catalog("A4_12")
        bad = VectorField(ex.Num(0.0), ex.parse("x*y", ("x", "y")))
        assert check_invariance(bad, e.dods, samples=80,
                                window=e.window)[1] is Invariance.NOT_INVARIANT

    def test_deterministic_for_fixed_seed(self):
        e = catalog("A3_5")
        a = check_invariance(e.algebra[2], e.dods, samples=60, window=e.window)
        b = check_invariance(e.algebra[2], e.dods, samples=60, window=e.window)
        assert a == b

    def test_sample_count_validated(self):
        e = catalog("A3_5")
        with pytest.raises(ParameterDomainError):
            check_invariance(e.algebra[0], e.dods, samples=0, window=e.window)

    @pytest.mark.parametrize("samples", [2.5, 0, "3"])
    def test_sample_count_is_an_integer(self, samples):
        e = catalog("A3_5")
        with pytest.raises(ParameterDomainError) as caught:
            check_invariance(e.algebra[0], e.dods, samples=samples, window=e.window)
        assert str(caught.value) == f"samples must be an integer >= 1, got {samples!r}"

    def test_overflowing_samples_are_not_counted(self):
        # inf * x^2 is NaN at x = 0 and inf elsewhere; x^2 d_y is no symmetry,
        # so a NaN that max() dropped would have read as a strong one
        e = catalog("A4_12")
        bad = VectorField(ex.Num(0.0), ex.parse("1e999*x^2", ("x", "y")))
        with pytest.raises(DomainError, match="no valid sample points"):
            check_invariance(bad, e.dods, window=e.window)


def _per_term(v, d):
    """The prolongation as it was computed before the kernel, one compiled
    call per term: (pr1, pr2, scale) at a point."""
    def deriv(e, name):
        return ex.fold(ex.differentiate(e, name))

    coords = ("x", "y", "xm", "ym")
    m = d.rhs_manifold if d.rhs_manifold is not None else d.rhs.as_expr()
    partials = [ex.compile(deriv(m, name), coords) for name in coords]
    x1, xy = ("x",), ("x", "y")
    xi_at, xi_prime_at = ex.compile(v.xi, x1), ex.compile(deriv(v.xi, "x"), x1)
    if not isinstance(v.eta, AffineEta):
        eta_at = ex.compile(v.eta, xy)
        eta_x_at = ex.compile(deriv(v.eta, "x"), xy)
        eta_y_at = ex.compile(deriv(v.eta, "y"), xy)
    else:
        p = ex.compile(v.eta.p, x1)
        p_x = ex.compile(deriv(v.eta.p, "x"), x1)
        r = v.eta.r
        if isinstance(r, ex.Expr):
            r_value, r_slope = ex.compile(r, x1), ex.compile(deriv(r, "x"), x1)
        else:
            r_value, r_slope = r.value, lambda u: r.eval(u)[2]
        eta_at = lambda u, y: p(u) * y + r_value(u)  # noqa: E731
        eta_x_at = lambda u, y: p_x(u) * y + r_slope(u)  # noqa: E731
        eta_y_at = lambda u, y: p(u)  # noqa: E731

    def terms(point):
        x, y, xm, ym, ydot = point
        m_x, m_y, m_xm, m_ym = [f(x, y, xm, ym) for f in partials]
        xi = xi_at(x)
        xi_m = xi_at(xm)
        eta = eta_at(x, y)
        eta_m = eta_at(xm, ym)
        zeta = eta_x_at(x, y) + eta_y_at(x, y) * ydot - ydot * xi_prime_at(x)
        terms = (zeta, xi * m_x, eta * m_y, xi_m * m_xm, eta_m * m_ym)
        pr1 = terms[0] - (terms[1] + terms[2] + terms[3] + terms[4])
        pr2 = xi_m - xi * d.delay.derivative(x)
        scale = max(abs(t) for t in terms + (xi_m, xi * d.delay.derivative(x)))
        return pr1, pr2, scale
    return terms


def _through_kernel(v, d):
    """(pr1, pr2, scale) at a point from one kernel call, as the generated
    loop reads them: outputs 11 and 12 and the largest magnitude of the
    terms 13 to 19."""
    kernel, r = symmetry._kernel(v, d), symmetry._computed_r(v)

    def terms(point):
        x, y, xm, ym, ydot = point
        reads = () if r is None else (r.value(x), r.value(xm), r.eval(x)[2])
        out = kernel(x, y, xm, ym, ydot, d.delay.derivative(x), *reads)
        return out[11], out[12], max(abs(t) for t in out[13:])
    return terms


def _outcome(fn, *a):
    try:
        return tuple(float.hex(t) for t in fn(*a))
    except DelaySymError as exc:
        return type(exc), str(exc)


_WRONG = VectorField(ex.Num(0.0), ex.parse("x^2"), name="x^2 d_y")


def _fields_and_systems():
    """Every catalog generator on its system, the wrong generator x^2 d_y,
    X5 and X6 on A4_12, and a closed form AffineEta on the smoothing
    example: (label, field, system, window)."""
    out = []
    cases = [CatalogCase(cid) for cid in sorted(EXPECTED)] + [
        CatalogCase("A3_3", {"a": 1.0}), CatalogCase("A3_3", {"a": -1.0}),
        CatalogCase("A3_7", {"b": 0.0}),
        CatalogCase("A4_5", delay='general("x - 1 - 0.1*sin(x)")')]
    for case in cases:
        e = catalog(case)
        for v in e.algebra + (_WRONG,):
            out.append((f"{case.id} {case.params or case.delay or ''} {v.name}", v, e.dods,
                        e.window))
    e = catalog("A4_12")
    for v in exp_symmetry_fields(char_roots(1.0, 2)[2]):
        out.append((f"A4_12 {v.name}", v, e.dods, e.window))
    d, _ = smoothing_instance()
    affine = VectorField(ex.Num(0.0), AffineEta(ex.parse("sin(x)"), ex.parse("x^2 + 1")))
    out.append(("smoothing affine eta", affine, d, (-0.5, 2.5)))
    return out


_FIELDS = _fields_and_systems()


def _buildable():
    """The catalog entry of every case that admits a delay system."""
    out = []
    for cid in CASE_IDS:
        try:
            out.append(catalog(cid))
        except NoDodsError:
            pass
    return out


_BUILDABLE = _buildable()


def _bench_catalog():
    """bench/catalog.py, which draws the benchmark's catalog cases."""
    bench = pathlib.Path(__file__).parents[1] / "bench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("bench_catalog", bench / "catalog.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


_BENCH = _bench_catalog()
_BENCH_VARIANTS = _BENCH.VARIANTS


def _bench_case(key, seed):
    """The catalog case of a benchmark variant, with its constants drawn at seed."""
    cid = next(variant[1] for variant in _BENCH_VARIANTS if variant[0] == key)
    drawn = _BENCH.draw(random.Random(seed))[key]
    return CatalogCase(cid, drawn["params"], drawn.get("f"), drawn.get("delay"))


def _judge(terms, point, scaled=True):
    """The judge of check_invariance before its loop was generated; not
    scaled, it judges by worst <= 1e-7 alone."""
    try:
        pr1, pr2, scale = terms(point)
    except (DomainError, OutOfRange, MeshRangeError):
        return None
    if not (math.isfinite(pr1) and math.isfinite(pr2) and math.isfinite(scale)):
        return None
    worst = max(abs(pr1), abs(pr2))
    return worst, worst <= 1e-7 * (1.0 + scale if scaled else 1.0)


def _reference_check(v, d, samples, window, scaled=(True, True), perturbed=None):
    """check_invariance as it was before its loop was generated: both
    sampling phases in Python, each point judged through _per_term, in
    phase 1 and phase 2 with or without the scale as `scaled` says.  Phase 2
    appends each point it perturbs to the list `perturbed`, if given."""
    lo, hi = window
    rng = random.Random(7)
    r = v.eta.r if isinstance(v.eta, AffineEta) and not isinstance(v.eta.r, ex.Expr) else None
    breaks = r.mesh.points if r is not None else ()
    terms = _per_term(v, d)

    def fresh_point():
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
        judged = None if pt is None else _judge(terms, pt, scaled[0])
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
        if perturbed is not None:
            perturbed.append((x, y, xm, ym, ydot))
        for pt in ((x, y + sign, xm, ym, ydot),
                   (x, y, xm, ym + sign, ydot),
                   (x, y, xm, ym, ydot + sign),
                   (x, y, xm + sign * (x - xm) / 2.0, ym, ydot)):
            judged = _judge(terms, pt, scaled[1])
            if judged is not None and not judged[1]:
                return max_on, Invariance.WEAK
    return max_on, Invariance.STRONG


def _checked(check, v, d, samples, window):
    """(max as float.hex, class) of a check, or (error type, message)."""
    try:
        mx, cls = check(v, d, samples, window)
    except DelaySymError as exc:
        return type(exc), str(exc)
    return mx.hex(), cls.value


def _chi():
    d, init = smoothing_instance()
    s = solve(d, init, 2, SolverConfig(Scheme.EXACT_LINEAR, step_count=512))
    return ("smoothing chi d_y", vertical_from_solution(s, d), d, (-0.9, 1.9))


_CHI = _chi()


def _points(d, window, seed, count=40):
    """Points on the manifold and off it: xm = g(x) moved by 0 or half a gap,
    y, ym and ydot anywhere in [-2, 2] or [-3, 3]."""
    rng = random.Random(seed)
    lo, hi = window
    out = []
    while len(out) < count:
        x = rng.uniform(lo, hi)
        try:
            xm = d.delay.delayed_point(x)
        except DelaySymError:
            continue
        xm += rng.choice((0.0, 0.5, -0.5)) * (x - xm)
        out.append((x, rng.uniform(-2, 2), xm, rng.uniform(-2, 2), rng.uniform(-3, 3)))
    return out


class TestKernel:
    @pytest.mark.parametrize("label, v, d, window", _FIELDS, ids=[f[0] for f in _FIELDS])
    def test_prolong_apply_matches_per_term(self, label, v, d, window):
        reference, kernel = _per_term(v, d), _through_kernel(v, d)
        for point in _points(d, window, seed=len(label)):
            want = _outcome(reference, point)
            assert _outcome(kernel, point) == want, (label, point)
            assert _outcome(prolong_apply, v, d, point) == want[:2], (label, point)

    @pytest.mark.parametrize("label, v, d, window", _FIELDS + [_CHI],
                             ids=[f[0] for f in _FIELDS + [_CHI]])
    def test_check_invariance_matches_reference_loop(self, label, v, d, window):
        for samples in (1, 7, 40, 200):
            assert (_checked(check_invariance, v, d, samples, window)
                    == _checked(_reference_check, v, d, samples, window)), samples

    @pytest.mark.parametrize("window", [(1.0 - 2e-6, 1.0 + 2e-6), (1.0 - 1e-6, 1.0 + 1e-6)])
    def test_draws_next_to_a_mesh_break(self, window):
        # about half the draws of the first window, and every draw of the
        # second, lie within 1e-6 of the break x = 1 and draw no y or ym
        label, v, d, _ = _CHI
        got = _checked(check_invariance, v, d, 40, window)
        assert got == _checked(_reference_check, v, d, 40, window)
        assert (got[0] is DomainError) == (window[1] - window[0] < 3e-6)

    def test_delay_that_raises_on_part_of_the_window(self):
        # A4_14's relation has its pole at x = -1/C and delays only past it
        e = catalog(CatalogCase("A4_14", {"C": 1.5}))
        pole = -1.0 / 1.5
        for v in e.algebra + (_WRONG,):
            for window in ((pole - 0.5, pole + 0.5), (pole - 1e-3, pole + 1e-3)):
                got = _checked(check_invariance, v, e.dods, 40, window)
                assert got == _checked(_reference_check, v, e.dods, 40, window), (v.name, window)
                assert got[0] is not DomainError

    def test_overflow_in_a_term(self):
        # exp(300 x) overflows for x > 2.37: those samples are skipped
        e = catalog("A4_12")
        for text in ("exp(300*x)*y", "y + exp(300*x)", "x^300*y"):
            v = VectorField(ex.Num(0.0), ex.parse(text, ("x", "y")))
            got = _checked(check_invariance, v, e.dods, 40, e.window)
            assert got == _checked(_reference_check, v, e.dods, 40, e.window), text

    def test_window_with_no_valid_point(self):
        # a scale relation delays only on x > 0
        e = catalog("A3_14")
        for v in e.algebra + (_WRONG,):
            got = _checked(check_invariance, v, e.dods, 7, (-2.0, -1.0))
            assert got == _checked(_reference_check, v, e.dods, 7, (-2.0, -1.0))
            assert got == (DomainError, "no valid sample points in the window")

    def test_weak_field_returns_before_a_later_error(self):
        # y d_y with xi = 0*sin(1e308*(2 - 5*(x - 1.6)^2)): xi is 0 at every x
        # and xm = x - 1 of the window, but at the midpoints 1.5..1.7 that the
        # fourth perturbation moves xm to, sin(inf) raises a DomainError; the
        # first perturbation, y + 1, already fails
        e = catalog("A4_12")
        v = VectorField(ex.parse("0*sin(1e308*(2 - 5*(x - 1.6)^2))"), ex.parse("y", ("x", "y")))
        window = (2.0, 2.2)
        assert check_invariance(v, e.dods, 40, window) == _reference_check(v, e.dods, 40, window)
        assert check_invariance(v, e.dods, 40, window)[1] is Invariance.WEAK
        with pytest.raises(DomainError, match="sin of infinite value"):
            prolong_apply(v, e.dods, (2.1, 0.5, 1.6, 0.2, 0.3))

    def test_scale_decides_in_both_phases(self):
        # 1e9 x d_y on A3_5, y' = y - y(x - 1) + e^x: the terms eta m_y and
        # eta(xm) m_ym reach 3e9, and their rounding leaves applied values
        # above 1e-7, which pass only as a share of the scale.  Judged without
        # it, phase 1 would call the field no symmetry, and phase 2 a weak one
        e = catalog("A3_5")
        v = VectorField(ex.Num(0.0), ex.parse("1e9*x"))
        got = check_invariance(v, e.dods, 60, e.window)
        assert got == _reference_check(v, e.dods, 60, e.window)
        assert got[1] is Invariance.STRONG and got[0] > 1e-7
        for scaled, cls in (((False, True), Invariance.NOT_INVARIANT),
                            ((True, False), Invariance.WEAK)):
            assert _reference_check(v, e.dods, 60, e.window, scaled)[1] is cls, scaled

    @pytest.mark.parametrize("q, want", [
        ("(xm - x + 1)*(2*xm - 2*x + 1)", Invariance.WEAK),
        ("(xm - x + 1)*(2*xm - 2*x + 1)*(2*xm - 2*x + 3)", Invariance.STRONG),
    ], ids=["Q1", "Q2"])
    def test_phase_two_moves_by_its_sign_and_size(self, q, want):
        # y' = y - y(x - 1) on the manifold as (y - ym) + y Q, with Q zero at
        # xm = x - 1: d_y applies -Q, so it holds on the manifold.  Phase 2
        # moves xm by half the gap, up at odd points and down at even ones.
        # Q1 vanishes only at the upward move, so d_y turns weak at the second
        # point; Q2 vanishes at both, so it stays strong.  Every sign +1 would
        # call Q1 strong, and a move of another size would call Q2 weak
        manifold = ex.parse(f"(y - ym) + y*({q})", ("x", "y", "xm", "ym"))
        d = Dods(LinearRhs(ex.Num(1.0), ex.Num(-1.0), ex.Num(0.0)), ConstantDelay(1.0),
                 (-10.0, 10.0), manifold)
        v = VectorField(ex.Num(0.0), ex.Num(1.0))
        got = check_invariance(v, d, 40, (0.0, 3.0))
        assert got[1] is want and got[0] <= 1e-15
        assert got == _reference_check(v, d, 40, (0.0, 3.0))

    @pytest.mark.parametrize("delay, window", [
        (ConstantDelay(1.0), (0.0, 3.0)), (AffineDelay(0.8, 0.5), (0.5, 3.0)),
        (QScaleDelay(0.5), (0.5, 3.0)), (MoebiusDelay(1.0), (0.0, 3.0)),
    ], ids=["constant", "affine", "qscale", "moebius"])
    def test_phase_two_results_follow_its_moves_on_every_relation(self, delay, window):
        # as above, with Q built from the relation's own g: the half gap
        # (x - xm)/2 varies with x off a constant delay.  Q_up vanishes at
        # xm = g and at the upward move (x + g)/2, so d_y turns weak at the
        # first downward move; Q_both also vanishes at the downward move
        # (3g - x)/2, so d_y stays strong.  Every sign +1 would call Q_up
        # strong, and a move of another size would call Q_both weak: either
        # breaks the equality with the reference loop
        g = delay.as_expr()
        q_up = "(xm - g)*(2*xm - x - g)"
        v = VectorField(ex.Num(0.0), ex.Num(1.0))
        got = []
        for q in (q_up, f"{q_up}*(2*xm + x - 3*g)"):
            extra = ex.substitute(ex.parse(q, ("x", "xm", "g")), {"g": g})
            manifold = ex.Binary("+", ex.parse("y - ym", ("y", "ym")),
                                 ex.Binary("*", ex.Var("y"), extra))
            d = Dods(LinearRhs(ex.Num(1.0), ex.Num(-1.0), ex.Num(0.0)), delay,
                     delay.default_domain(), manifold)
            got.append(check_invariance(v, d, 40, window))
            assert got[-1] == _reference_check(v, d, 40, window), q
        assert [cls for _, cls in got] == [Invariance.WEAK, Invariance.STRONG]

    def test_reads_run_once_per_sample(self, monkeypatch):
        # g' is called once for each sample that reaches the judge and never
        # again, and a computed r's r(x), r(xm) and r'(x) likewise; phase 2
        # reads r only at each moved xm.  Phase 2 must perturb the points the
        # reference loop perturbs, with signs +1, -1, ...: counted as the runs
        # of the generated line that sets a perturbed point's sign
        calls, reads = {}, []

        def counted(cls, name):
            inner = getattr(cls, name)

            def method(self, x):
                out = inner(self, x)  # a call that raises is not counted
                calls[name] = calls.get(name, 0) + 1
                if name == "value":
                    reads.append(x)
                return out
            monkeypatch.setattr(cls, name, method)

        # A4_14's relation raises on the half of the first window before its
        # pole; a linear right hand side never raises, so every delayed point
        # reaches the judge.  chi's r can be read at x, xm and a moved xm all
        # over (0.5, 2); chi turns weak at the first moved xm, its first
        # point's fourth perturbation.  1e-8 y d_y is weak only where what a
        # unit step of y or ym leaves, 1e-8 alpha or 1e-8 beta, passes 1e-7:
        # under alpha = exp(2x) and under beta = -exp(2x), past the first few
        # points
        e = catalog(CatalogCase("A4_14", {"C": 1.5}))
        pole = -1.0 / 1.5
        cases = [(v, e.dods, window) for v in e.algebra + (_WRONG,)
                 for window in ((pole - 0.5, pole + 0.5), e.window)]
        cases.append((_CHI[1], _CHI[2], (0.5, 2.0)))
        small = VectorField(ex.Num(0.0), ex.parse("1e-8*y", ("x", "y")))
        for alpha, beta in (("exp(2*x)", "-1"), ("1", "-exp(2*x)")):
            steep = Dods(LinearRhs(ex.parse(alpha), ex.parse(beta), ex.Num(0.0)), ConstantDelay(1.0))
            cases.append((small, steep, (0.0, 3.0)))
        want = []
        for v, d, window in cases:
            perturbed = []
            want.append((_reference_check(v, d, 40, window, perturbed=perturbed), len(perturbed)))
            if v is _CHI[1]:
                x, _, xm, _, _ = perturbed[0]
                chi_reads = [x, xm, xm + (x - xm) / 2.0]
        for cls, name in ((MoebiusDelay, "delayed_point"), (MoebiusDelay, "derivative"),
                          (ConstantDelay, "delayed_point"), (ConstantDelay, "derivative"),
                          (PiecewiseSolution, "eval"), (PiecewiseSolution, "value")):
            counted(cls, name)
        # the sign line of every loop built from here on, by its code object
        symmetry._loop.cache_clear()
        sign_line = {}
        inner_bytecode = ex._bytecode

        def recorded(source):
            code = inner_bytecode(source)
            lines = source.split("\n")
            for make in code.co_consts:
                for c in getattr(make, "co_consts", ()):
                    if getattr(c, "co_name", None) == "compiled":
                        sign_line[c] = next((i for i, line in enumerate(lines, 1)
                                             if line.strip().startswith("sign = ")), None)
            return code
        monkeypatch.setattr(ex, "_bytecode", recorded)
        runs = []

        def tracer(frame, event, arg):
            line = sign_line.get(frame.f_code)
            if line is None:
                return None

            def local(frame, event, arg):
                if event == "line":
                    if runs and runs[-1] is None:  # the line after the sign line
                        runs[-1] = frame.f_locals["sign"]
                    if frame.f_lineno == line:
                        runs.append(None)
                return local
            return local
        got = []
        for v, d, window in cases:
            d.manifold_partials  # built, and checked against rhs_fn at g(x), uncounted
            calls.clear()
            runs.clear()
            reads.clear()
            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                result = check_invariance(v, d, 40, window)
            finally:
                sys.settrace(previous)
            judged = calls["delayed_point"]
            assert calls["derivative"] == judged
            if v is _CHI[1]:
                assert calls["eval"] == judged and calls["value"] == 2 * judged + len(runs)
                assert reads[:3] == chi_reads
            else:
                assert "eval" not in calls and "value" not in calls
            assert runs == [(-1.0) ** i for i in range(len(runs))]
            got.append((result, len(runs)))
        assert got == want
        assert {result[1] for result, _ in got} == set(Invariance)
        assert {n for _, n in got[:-2]} == {0, 1, 40}
        assert all(result[1] is Invariance.WEAK and 1 < n < 40 for result, n in got[-2:])

    def test_zero_fields_read_positive_zero(self):
        # every applied value of 0 d_x + 0 d_y, and of 0.0 x d_x + 0.0 y d_y,
        # whose products turn -0.0 where x, y or a partial is negative, is a
        # zero; the judge reads each as +0.0, as abs does, so on every
        # buildable catalog system max_on is +0.0 and no perturbation fails
        fields = (VectorField(ex.Num(0.0), ex.Num(0.0)),
                  VectorField(ex.parse("0.0*x"), ex.parse("0.0*y", ("x", "y"))))
        negative = 0
        for e in _BUILDABLE:
            for v in fields:
                mx, cls = check_invariance(v, e.dods, 40, e.window)
                assert mx == 0.0 and math.copysign(1.0, mx) == 1.0, (e.dods, v)
                assert cls is Invariance.STRONG
                assert _checked(_reference_check, v, e.dods, 40, e.window) == (
                    "0x0.0p+0", "strong")
            kernel = _through_kernel(fields[1], e.dods)
            for point in _points(e.dods, e.window, 5, 10):
                try:
                    negative += any(math.copysign(1.0, p) < 0.0 for p in kernel(point)[:2])
                except DelaySymError:
                    pass
        assert negative

    def test_points_that_overflow_without_raising_are_skipped(self):
        # each catalog generator scaled by 1e308: its terms overflow to inf
        # at some points and not at others, and inf - inf is NaN, none of it
        # raising.  The judge skips a point whose pr1 or pr2 is not finite
        # exactly as the reference loop does, and judges the rest
        B, big = ex.Binary, ex.Num(1e308)
        skipped = classes = 0
        for e in _BUILDABLE:
            for v in e.algebra:
                w = VectorField(B("*", big, v.xi), B("*", big, v.eta))
                got = _checked(check_invariance, w, e.dods, 40, e.window)
                assert got == _checked(_reference_check, w, e.dods, 40, e.window), v.name
                classes += got[1] in ("strong", "weak")
                kernel = _through_kernel(w, e.dods)
                for point in _points(e.dods, e.window, 5, 10):
                    try:
                        skipped += not all(map(math.isfinite, kernel(point)[:2]))
                    except DelaySymError:
                        pass
        assert skipped and classes

    def test_kernel_source_holds_each_guard_once(self):
        # A3_7's X3 divides by (x - xm)^C2 in four partials: its kernel
        # tests that divisor once, before the first quotient
        e = catalog("A3_7")
        lines = ex._emit(*symmetry._kernel_trees(e.dods.manifold_partials, e.algebra[2]._trees,
                                                 False))[0]
        guards = [line for line in lines if line.startswith("if ")]
        assert len(guards) == len(set(guards)) == 5
        assert "if t7 == 0.0: raise _division_by_zero()" in guards

    def test_perturbations_rerun_only_what_they_move(self, monkeypatch):
        # phase 2's block for y, ym, ydot or xm holds exactly the statements
        # of the kernel's nodes that contain the moved name (one per node and
        # one per guard of such an operand), each reading the moved argument
        # or a name the block set, bar the moved argument's own float()
        # coercion, which the move already gives: 1,868 per point over the
        # catalog generators, where rerunning every statement that reaches
        # more than x took 5,008.  The point's statements are the kernel's,
        # and no generated loop, chi's included, coerces a moved argument
        def moving(roots, names):
            nodes, guards, todo = set(), set(), list(roots)
            while todo:
                node = todo.pop()
                children = [getattr(node, name) for name in ("child", "left", "right")
                            if hasattr(node, name)]
                todo += children
                if children and ex.variables_of(node) & names:
                    nodes.add(node)
                    if node.op in ex._GUARDS and ex.variables_of(children[-1]) & names:
                        guards.add((node.op, children[-1]))
            return len(nodes) + len(guards)

        sources = []
        inner = ex._bytecode
        monkeypatch.setattr(ex, "_bytecode", lambda s: (sources.append(s), inner(s))[1])
        total = 0
        for cid in sorted(EXPECTED):
            e = catalog(cid)
            for v in e.algebra:
                kernel = symmetry._kernel_trees(e.dods.manifold_partials, v._trees, False)
                _, ((_, lines, _), *blocks) = symmetry._perturbations(e.dods.manifold_partials,
                                                                      v._trees, False)
                assert lines == ex._emit(*kernel)[0]
                assert blocks, (cid, v.name)
                for moves, statements, _ in blocks:
                    assert len(moves) == 1
                    target = moves[0].split(" = ")[0]
                    arg = next(name[:-1] for name, a in symmetry._ARG.items() if a == target)
                    assert len(statements) == moving(kernel[0], {arg}), (cid, v.name, arg)
                    set_here = {target}
                    for statement in statements:
                        assigned, _, value = statement.rpartition(" = ")
                        if statement.startswith("if "):
                            assigned, value = "", statement
                        assert set(re.findall(r"\b[at]\d+\b", value)) & set_here, statement
                        set_here.add(assigned)
                    total += len(statements)
                symmetry._loop.__wrapped__(e.dods.manifold_partials, v._trees, False)
        assert total <= 1868
        symmetry._loop.__wrapped__(_CHI[2].manifold_partials, _CHI[1]._trees, True)
        loops = [source for source in sources if "max_on" in source]
        assert len(loops) == 40 and any("a13 = r_value(a12)" in source for source in loops)
        moved = "|".join(symmetry._ARG[name][1:] for name in symmetry._FRESH)
        assert not any(re.search(rf"\ba({moved}) = float\(a\1\)", source) for source in loops)

    @pytest.mark.parametrize("key", [variant[0] for variant in _BENCH_VARIANTS] + ["extra"])
    def test_bench_variants_match_reference_loop(self, key):
        # every variant of the benchmark's catalog round at two draws of its
        # constants, with the wrong generator, on its window and on one
        # shifted past its end; "extra" is chi d_y and 1e-8 y d_y on the two
        # steep systems, which turn weak after the first points
        cases = []
        if key == "extra":
            small = VectorField(ex.Num(0.0), ex.parse("1e-8*y", ("x", "y")))
            cases += [(_CHI[1], _CHI[2], (-0.9, 1.9)), (_CHI[1], _CHI[2], (0.0, 2.0))]
            for alpha, beta in (("exp(2*x)", "-1"), ("1", "-exp(2*x)")):
                steep = Dods(LinearRhs(ex.parse(alpha), ex.parse(beta), ex.Num(0.0)),
                             ConstantDelay(1.0))
                cases += [(small, steep, (0.0, 3.0)), (small, steep, (-1.0, 2.0))]
        for seed in (() if key == "extra" else (1, 2)):
            e = catalog(_bench_case(key, seed))
            lo, hi = e.window
            cases += [(v, e.dods, window) for v in e.algebra + (_WRONG,)
                      for window in (e.window, (lo + 0.25 * (hi - lo), hi + 0.3))]
        for v, d, window in cases:
            for samples in (1, 7, 60, 200):
                assert (_checked(check_invariance, v, d, samples, window)
                        == _checked(_reference_check, v, d, samples, window)), (v.name, samples)

    def test_errors_match_per_term(self):
        # xm = x divides by zero in the slope's partials; ln of a negative x
        # fails in eta before the product that uses it; with both, the
        # partials come first
        e = catalog("A4_12")
        v = VectorField(ex.Num(0.0), ex.parse("ln(x)*y", ("x", "y")))
        for point in ((0.5, 1.0, 0.5, 2.0, 0.3), (-0.5, 1.0, -1.5, 2.0, 0.3),
                      (-0.5, 1.0, -0.5, 2.0, 0.3)):
            want = _outcome(lambda p: _per_term(v, e.dods)(p)[:2], point)
            assert want[0] is DomainError
            assert _outcome(prolong_apply, v, e.dods, point) == want

    def test_computed_r_matches_per_term(self):
        label, v, d, window = _CHI
        reference, kernel = _per_term(v, d), _through_kernel(v, d)
        # x from inside the solution's range to past its end, where r fails
        for i in range(41):
            x = -0.9 + 3.2 * i / 40
            for point in ((x, 0.3, x - 1.0, -0.4, 0.7), (x, 1.3, x - 0.5, 0.4, -0.7)):
                want = _outcome(reference, point)
                assert _outcome(kernel, point) == want, point
                assert _outcome(prolong_apply, v, d, point) == want[:2], point
        assert check_invariance(v, d, 60, window) == _reference_check(v, d, 60, window)

    def test_one_kernel_per_field_and_system(self):
        a, b = catalog("A3_5"), catalog("A4_12")
        v = a.algebra[2]
        kernel = symmetry._kernel(v, a.dods)
        assert symmetry._kernel(v, a.dods) is kernel
        other = symmetry._kernel(v, b.dods)
        assert other is not kernel and symmetry._kernel(v, a.dods) is kernel
        assert symmetry._kernel(v, b.dods) is other
        # equal values share one kernel: a rebuilt field and system
        rebuilt = catalog("A3_5")
        assert symmetry._kernel(rebuilt.algebra[2], rebuilt.dods) is kernel

    def test_generated_source_does_not_depend_on_hash_order(self):
        # the source is the bytecode cache key: record every source the
        # loops and kernels of three systems generate, under two hash seeds
        code = ("import sys, hashlib; sys.path.insert(0, sys.argv[1]); "
                "import delaysym.expr as ex; from delaysym import dods, symmetry; "
                "seen = []; inner = ex._bytecode; "
                "ex._bytecode = lambda s: (seen.append(s), inner(s))[1]; "
                "[(symmetry.check_invariance(v, e.dods, 5, e.window), "
                "  symmetry.prolong_apply(v, e.dods, (1.5, 0.3, e.dods.delay.delayed_point(1.5), "
                "                                     0.2, 0.1))) "
                " for e in map(dods.catalog, ('A2_1', 'A3_7', 'A4_21')) for v in e.algebra]; "
                "print(len(seen), sum('max_on' in s for s in seen), "
                "      hashlib.sha256('\\n'.join(seen).encode()).hexdigest())")
        src = str(pathlib.Path(symmetry.__file__).parents[1])
        outs = {subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                               text=True, check=True, timeout=60,
                               env={**os.environ, "PYTHONHASHSEED": seed}).stdout
                for seed in ("0", "12345")}
        assert len(outs) == 1
        sources, loops, _ = outs.pop().split()
        assert int(loops) == 9 and int(sources) >= 18

    def test_pickle_after_a_check_drops_the_kernel(self):
        e = catalog("A3_7")
        v = e.algebra[2]
        before = check_invariance(v, e.dods, samples=40, window=e.window)
        point = (0.5, 1.0, e.dods.delay.delayed_point(0.5), -0.3, 0.7)
        applied = prolong_apply(v, e.dods, point)
        # the trees that key the cache are kept on the field and the system,
        # not pickled
        assert "_trees" in v.__dict__ and "manifold_partials" in e.dods.__dict__
        data = pickle.dumps((v, e.dods))
        assert data == pickle.dumps((VectorField(v.xi, v.eta, v.name),
                                     Dods(e.dods.rhs, e.dods.delay, e.dods.domain,
                                          e.dods.rhs_manifold)))
        v2, d2 = pickle.loads(data)
        assert (v2, d2) == (v, e.dods)
        assert "_trees" not in v2.__dict__ and "manifold_partials" not in d2.__dict__
        assert check_invariance(v2, d2, samples=40, window=e.window) == before
        assert prolong_apply(v2, d2, point) == applied


class TestCache:
    """The caches of kernels and loops, keyed on the interned trees."""

    def test_rebuilt_entry_generates_no_new_source(self, monkeypatch):
        case = CatalogCase("A3_5", {"C1": 1.25, "C2": 0.75})

        def run():
            e = catalog(case)
            point = (1.5, 0.3, e.dods.delay.delayed_point(1.5), 0.2, 0.1)
            return [(check_invariance(v, e.dods, 40, e.window), prolong_apply(v, e.dods, point))
                    for v in e.algebra + (_WRONG,)]

        first = run()
        built = []
        for name in ("_emit", "_bytecode"):
            inner = getattr(ex, name)
            monkeypatch.setattr(ex, name, lambda *a, inner=inner: (built.append(a), inner(*a))[1])
        assert run() == first
        assert built == []

    def test_other_constants_reuse_the_bytecode(self, monkeypatch):
        # constants are closure values: the case at other parameters misses
        # the caches keyed by trees, but every source it generates is one
        # already compiled
        def run(params):
            e = catalog(CatalogCase("A3_5", params))
            point = (1.5, 0.3, e.dods.delay.delayed_point(1.5), 0.2, 0.1)
            return [(check_invariance(v, e.dods, 7, e.window), prolong_apply(v, e.dods, point))
                    for v in e.algebra + (_WRONG,)]

        run({"C1": 1.25, "C2": 0.75})
        emitted = []
        inner = ex._emit
        monkeypatch.setattr(ex, "_emit", lambda *a: (emitted.append(a), inner(*a))[1])
        before = ex._bytecode.cache_info()
        run({"C1": 0.9, "C2": 1.1})
        after = ex._bytecode.cache_info()
        assert len(emitted) >= 2 * 4
        assert after.misses == before.misses and after.hits - before.hits == len(emitted)

    def test_keys_are_walked_once_per_object(self, monkeypatch):
        # the trees are the key: a rebuilt system and field, their trees
        # built, find the loop by the stored hashes of the key's 11 roots, and
        # no other node is hashed or compared
        e = catalog("A3_5")
        v = e.algebra[2]
        want = check_invariance(v, e.dods, 7, e.window)
        rebuilt = catalog("A3_5")
        w, d = rebuilt.algebra[2], rebuilt.dods
        roots = (*d.manifold_partials, *w._trees)
        assert roots == (*e.dods.manifold_partials, *v._trees)
        d.rhs_fn, d.delay.delayed_point, d.delay.derivative  # compiled, and kept on d
        hashed = []
        inner = ex.Expr.__hash__
        monkeypatch.setattr(ex.Expr, "__hash__", lambda node: (hashed.append(node), inner(node))[1])
        misses = symmetry._loop.cache_info().misses
        assert check_invariance(w, d, 7, e.window) == want
        assert symmetry._loop.cache_info().misses == misses
        assert sorted(map(id, hashed)) == sorted(map(id, roots))

    def test_signed_zero_and_int_constants_stay_apart(self):
        # x = 0.5 > 0 > xm = -0.5: pr2 = c*xm - (c*x)*g' is -0.0 for c = 0.0
        # and 0.0 for c = -0.0; eta = c is kernel output 6, an int for c = 1
        d, _ = smoothing_instance()
        point = (0.5, 0.3, -0.5, 0.2, 0.1)
        seen = {}
        for c in (0.0, -0.0, 1, 1.0):
            v = VectorField(ex.Binary("*", ex.Num(c), ex.Var("x")), ex.Num(c))
            pr2 = prolong_apply(v, d, point)[1]
            assert pr2.hex() == _per_term(v, d)(point)[1].hex()
            assert repr(symmetry._kernel(v, d)(*point, 1.0)[6]) == repr(c)
            seen[repr(c)] = (symmetry._loop(d.manifold_partials, v._trees, False),
                             symmetry._kernel(v, d), pr2.hex())
            check_invariance(v, d, 7, (0.5, 1.5))
        assert seen["0.0"][2] == "-0x0.0p+0" and seen["-0.0"][2] == "0x0.0p+0"
        for a, b in (("0.0", "-0.0"), ("1", "1.0")):
            assert seen[a][0] is not seen[b][0] and seen[a][1] is not seen[b][1]

    def test_bound_holds(self):
        assert (symmetry._loop.cache_info().maxsize == symmetry._compile_kernel.cache_info().maxsize
                == steps._with_slope.cache_info().maxsize == 256)
        assert ex._generate.cache_info().maxsize == 1024
        d, _ = smoothing_instance()
        fields = [VectorField(ex.Num(0.0), ex.parse(f"{k}*x^2")) for k in range(1, 7)]
        first = [check_invariance(v, d, 7, (0.5, 1.5)) for v in fields]
        # an evicted loop is built again, alike
        symmetry._loop.cache_clear()
        assert [check_invariance(v, d, 7, (0.5, 1.5)) for v in fields] == first
        assert symmetry._loop.cache_info().currsize == 6

    def test_holds_no_system_or_field(self):
        for e in (catalog("A3_7"), catalog("A4_14")):
            for v in e.algebra + (_WRONG,):
                check_invariance(v, e.dods, 7, e.window)
                prolong_apply(v, e.dods, (1.5, 0.3, e.dods.delay.delayed_point(1.5), 0.2, 0.1))
        label, v, d, window = _CHI
        check_invariance(v, d, 7, window)
        prolong_apply(v, d, (0.5, 0.3, -0.5, 0.2, 0.1))
        solve(*smoothing_instance(), 1, SolverConfig(step_count=8))
        # walk everything the caches refer to, except modules, classes and
        # the globals of the generated functions, checked apart below; trees
        # are what the caches are keyed by
        module_dicts = {id(vars(m)) for m in list(sys.modules.values()) if m is not None}
        skipped = module_dicts | {id(ex._COMPILE_GLOBALS), id(symmetry._LOOP_GLOBALS)}
        seen, todo = set(), [symmetry._loop, symmetry._compile_kernel, ex._generate,
                             steps._with_slope]
        while todo:
            obj = todo.pop()
            if id(obj) in seen or id(obj) in skipped or isinstance(obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (Dods, VectorField, AffineEta, PiecewiseSolution,
                                        InitialCondition)), obj
            todo.extend(gc.get_referents(obj))
        assert len(seen) > 100
        for value in (*ex._COMPILE_GLOBALS.values(), *symmetry._LOOP_GLOBALS.values()):
            assert isinstance(value, (types.FunctionType, types.BuiltinFunctionType,
                                      types.ModuleType, tuple, Invariance)), value


def _bracket(v, w):
    """[v, w] of two closed-form fields, as its (xi, eta) trees."""
    d = ex.differentiate
    xi = ex.Binary("-", ex.Binary("*", v.xi, d(w.xi, "x")), ex.Binary("*", w.xi, d(v.xi, "x")))
    eta = ex.Binary("-", ex.Binary("+", ex.Binary("*", v.xi, d(w.eta, "x")),
                                   ex.Binary("*", v.eta, d(w.eta, "y"))),
                    ex.Binary("+", ex.Binary("*", w.xi, d(v.eta, "x")),
                              ex.Binary("*", w.eta, d(v.eta, "y"))))
    return xi, eta


class TestAlgebraCloses:
    """Each case's listed generators span a Lie algebra: every bracket of two
    of them is a constant combination of them all."""

    @pytest.mark.parametrize("seed", [None, 1, 2])
    @pytest.mark.parametrize("key", [variant[0] for variant in _BENCH_VARIANTS])
    def test_brackets_lie_in_the_span(self, key, seed):
        np = pytest.importorskip("numpy")
        variant = next(variant for variant in _BENCH_VARIANTS if variant[0] == key)
        case = CatalogCase(variant[1], variant[2] or None) if seed is None else _bench_case(key, seed)
        e = catalog(case)
        rng = random.Random(f"{key} {seed}")
        points = [{"x": rng.uniform(*e.window), "y": rng.uniform(-2.0, 2.0)} for _ in range(12)]

        def column(xi, eta):
            return [ex.evaluate(t, p) for p in points for t in (xi, eta)]

        span = np.array([column(v.xi, v.eta) for v in e.algebra]).T
        for i, v in enumerate(e.algebra):
            for w in e.algebra[i + 1:]:
                target = np.array(column(*_bracket(v, w)))
                c = np.linalg.lstsq(span, target, rcond=None)[0]
                scale = max(1.0, np.abs(target).max(), np.abs(span).max())
                assert np.abs(span @ c - target).max() <= 1e-12 * scale, (v.name, w.name, c)


class TestVerticalFromSolution:
    def test_accepts_homogeneous_solution(self):
        d, init = smoothing_instance()
        s = solve(d, init, 2, SolverConfig(Scheme.EXACT_LINEAR, step_count=512))
        v = vertical_from_solution(s, d)
        assert isinstance(v.eta, AffineEta)
        mx, cls = check_invariance(v, d, samples=60, window=(-0.9, 1.9))
        assert mx <= 1e-7
        assert cls is not Invariance.NOT_INVARIANT

    def test_rejects_non_solution(self):
        d, _ = smoothing_instance()
        junk = sample_expr(d.delay, "x^2", 0.0, 2)
        with pytest.raises(NotASolution):
            vertical_from_solution(junk, d)

    def test_forced_system_uses_homogeneous_part(self):
        # for gamma != 0 the admissible vertical additions solve the
        # homogeneous equation, not the forced one
        d = Dods(LinearRhs(ex.Num(0.0), ex.Num(1.0), ex.Num(1.0)), ConstantDelay(1.0))
        hom = sample_expr(d.delay, "0", 0.0, 2)
        v = vertical_from_solution(hom, d)
        assert v.name == "chi d_y"


class TestFlow:
    def setup_method(self):
        self.d, init = smoothing_instance()
        cfg = SolverConfig(Scheme.EXACT_LINEAR, step_count=512)
        self.s1 = solve(self.d, init, 2, cfg)
        self.s2 = solve(self.d, initial_condition("sin(x) + 2", self.d.delay, 0.0),
                        2, cfg)

    def test_superposition_with_numeric_solution(self):
        v = vertical_from_solution(self.s2, self.d)
        for eps in (-1.0, 0.5, 2.0):
            moved = flow(v, eps, self.s1, self.d)
            assert residual_scan(moved, self.d) <= 1e-9
            x = 0.8
            want = self.s1.value(x) + eps * self.s2.value(x)
            assert moved.value(x) == pytest.approx(want, rel=1e-12)

    def test_superposition_with_closed_form(self):
        # x solves y' = y - y-; adding any multiple keeps a solution
        v = VectorField(ex.Num(0.0), AffineEta(ex.Num(0.0), ex.parse("x")))
        for eps in (-1.0, 0.5, 2.0):
            moved = flow(v, eps, self.s1, self.d)
            assert residual_scan(moved, self.d) <= 1e-9

    def test_computed_r_is_read_one_sided_at_mesh_points(self):
        # r solves A4_12's homogeneous y' = y - y- from the history x^2, and its
        # slope jumps by -1 at x0: a segment ends on r's left slope and the
        # next starts on its right one
        d = catalog("A4_12").dods
        r = solve(d, initial_condition("x^2", d.delay, 0.5), 2,
                  SolverConfig(Scheme.EXACT_LINEAR, step_count=512))
        assert r.derivative_jump(0) == pytest.approx(-1.0, abs=1e-9)
        s = solve(d, initial_condition("1 + x", d.delay, 0.5), 2,
                  SolverConfig(Scheme.EXACT_LINEAR, step_count=16))
        eps = 0.3
        moved = flow(vertical_from_solution(r, d), eps, s, d)
        grow, gain = 1.0, eps  # p = 0
        for seg, before in zip(moved.segments, s.segments):
            assert seg.derivs[-1] == grow * before.derivs[-1] + gain * r.eval(seg.hi)[1]
            assert seg.derivs[0] == grow * before.derivs[0] + gain * r.eval(seg.lo)[2]

    def test_scaling_flow(self):
        v = VectorField(ex.Num(0.0), AffineEta(ex.Num(1.0), ex.Num(0.0)))
        moved = flow(v, 0.5, self.s1, self.d)
        assert residual_scan(moved, self.d) <= 1e-9
        assert moved.value(1.0) == pytest.approx(math.exp(0.5) * self.s1.value(1.0),
                                                 rel=1e-12)

    def test_translation_flow(self):
        v = VectorField(ex.Num(1.0), ex.Num(0.0), name="d_x")
        moved = flow(v, 0.25, self.s1, self.d)
        assert moved.x_start == pytest.approx(-0.75)
        assert residual_scan(moved, self.d) <= 1e-9

    def test_translation_on_unit_affine_delay_matches_constant(self):
        # AffineDelay(1, tau) is the constant delay tau written in another class
        v = VectorField(ex.Num(1.0), ex.Num(0.0), name="d_x")
        cfg = SolverConfig(Scheme.EXACT_LINEAR, step_count=64)
        moved = []
        for relation in (ConstantDelay(0.75), AffineDelay(1.0, 0.75)):
            d = Dods(self.d.rhs, relation)
            s = solve(d, initial_condition("(x + 1)^2", relation, 0.0), 3, cfg)
            moved.append(flow(v, 0.25, s, d))
        const, affine = (repr((m.mesh.points, [(g.nodes, g.values, g.derivs)
                                               for g in m.segments]))
                         for m in moved)
        assert affine == const

    def test_translation_needs_constant_delay(self):
        dq = Dods(LinearRhs(ex.Num(0.0), ex.parse("1/x"), ex.Num(0.0)),
                  QScaleDelay(0.5), domain=(0.0, math.inf))
        v = VectorField(ex.Num(1.0), ex.Num(0.0))
        with pytest.raises(UnsupportedFlow):
            flow(v, 1.0, self.s1, dq)

    def test_translation_needs_autonomous_coefficients(self):
        dx = Dods(LinearRhs(ex.parse("x"), ex.Num(1.0), ex.Num(0.0)),
                  ConstantDelay(1.0))
        with pytest.raises(UnsupportedFlow, match="independent of x"):
            flow(VectorField(ex.Num(1.0), ex.Num(0.0)), 1.0, self.s1, dx)

    def test_translation_of_autonomous_general_rhs(self):
        d = Dods(GeneralRhs(ex.parse("y*ym", ("x", "y", "ym"))), ConstantDelay(1.0))
        s = solve(d, initial_condition("0.5", d.delay, 0.0), 2,
                  SolverConfig(Scheme.RK4, step_count=512))
        moved = flow(VectorField(ex.Num(1.0), ex.Num(0.0), name="d_x"), 0.25, s, d)
        assert moved.x_start == pytest.approx(-0.75)
        assert moved.value(1.25) == pytest.approx(s.value(1.0), rel=1e-12)
        assert residual_scan(moved, d) <= 1e-9

    def test_nonconstant_xi_unsupported(self):
        with pytest.raises(UnsupportedFlow):
            flow(VectorField(ex.parse("x"), ex.Num(0.0)), 1.0, self.s1, self.d)

    def test_mixed_flow_unsupported(self):
        with pytest.raises(UnsupportedFlow):
            flow(VectorField(ex.Num(1.0), ex.parse("y", ("x", "y"))),
                 1.0, self.s1, self.d)

    def test_nonaffine_eta_unsupported(self):
        with pytest.raises(UnsupportedFlow):
            flow(VectorField(ex.Num(0.0), ex.parse("y^2", ("x", "y"))),
                 1.0, self.s1, self.d)

    def test_nonconstant_scaling_rate_unsupported(self):
        with pytest.raises(UnsupportedFlow):
            flow(VectorField(ex.Num(0.0), ex.parse("x*y", ("x", "y"))),
                 1.0, self.s1, self.d)

    def test_scaling_flow_with_tree_r(self):
        # y -> e^eps y + (e^eps - 1) x maps solutions of y' = y - y- to solutions
        v = VectorField(ex.Num(0.0), AffineEta(ex.Num(1.0), ex.parse("x")))
        moved = flow(v, 0.5, self.s1, self.d)
        assert residual_scan(moved, self.d) <= 1e-9
        grow = math.exp(0.5)
        assert moved.value(0.8) == pytest.approx(grow * self.s1.value(0.8) + (grow - 1.0) * 0.8,
                                                 rel=1e-12)

    def test_zero_eps_is_identity(self):
        v = VectorField(ex.Num(0.0), AffineEta(ex.Num(1.0), ex.parse("x")))
        moved = flow(v, 0.0, self.s1, self.d)
        for seg_a, seg_b in zip(moved.segments, self.s1.segments):
            assert seg_a.values == seg_b.values


class TestCharRoots:
    @pytest.mark.parametrize("C", [0.5, 1.0, 2.0])
    def test_residuals_both_forms(self, C):
        for root in char_roots(C, kmax=5):
            z, lam = root.z, root.lam
            assert abs(cmath.exp(z) - 1.0 - z) <= 1e-12
            assert abs(lam - (1.0 - cmath.exp(-lam * C)) / C) <= 1e-12

    @pytest.mark.parametrize("C", [0.5, 1.0, 2.0])
    def test_matches_lambert_w(self, C):
        # e^z = 1 + z has the roots z_k = -1 - W_{-(k+1)}(-1/e) (Corless et
        # al., "On the Lambert W function", 1996); scipy is a test-only oracle
        special = pytest.importorskip("scipy.special")
        for root in char_roots(C, kmax=12)[1:]:
            z = -1.0 - complex(special.lambertw(-1.0 / math.e, -(root.k + 1)))
            assert abs(root.z - z) <= 1e-14
            assert abs(root.lam + z / C) <= 1e-14

    @pytest.mark.parametrize("C", [0.5, 1.0, 2.0])
    def test_far_branches(self, C):
        # an absolute residual gate fails from k = 21 on: |exp(z)| ~ 2 pi k
        for root in char_roots(C, kmax=60)[1:]:
            z = root.z
            assert abs(z.imag - 2 * math.pi * root.k) < math.pi
            assert abs(cmath.exp(z) - 1.0 - z) <= 1e-12 * abs(z)

    @pytest.mark.parametrize("C", [0.5, 1.0, 2.0])
    def test_far_branches_match_lambert_w(self, C):
        special = pytest.importorskip("scipy.special")
        for root in char_roots(C, kmax=60)[1:]:
            z = -1.0 - complex(special.lambertw(-1.0 / math.e, -(root.k + 1)))
            assert abs(root.z - z) <= 1e-15 * abs(root.z)

    def test_branch_windows(self):
        for root in char_roots(1.0, kmax=5)[1:]:
            k = root.k
            assert 2 * math.pi * k - math.pi < root.z.imag < 2 * math.pi * k + math.pi

    def test_k0_is_origin(self):
        (r0,) = char_roots(3.0, 0)
        assert r0.z == 0j and r0.lam == 0j and r0.k == 0

    def test_first_branch_location(self):
        r = char_roots(1.0, 1)[1]
        assert r.z.real == pytest.approx(2.0888430, abs=1e-6)
        assert r.z.imag == pytest.approx(7.4614893, abs=1e-6)

    def test_lambda_scales_with_spacing(self):
        z1 = char_roots(1.0, 2)[2].z
        z2 = char_roots(2.0, 2)[2].z
        assert z1 == z2  # z solves exp(z) = 1 + z independently of C
        assert char_roots(2.0, 2)[2].lam == -z2 / 2.0

    def test_parameter_validation(self):
        with pytest.raises(ParameterDomainError):
            char_roots(0.0, 1)
        with pytest.raises(ParameterDomainError):
            char_roots(-1.0, 1)
        with pytest.raises(ParameterDomainError):
            char_roots(1.0, -1)
        for spacing in (math.inf, math.nan):
            with pytest.raises(ParameterDomainError):
                char_roots(spacing, 1)
        with pytest.raises(DomainError):
            char_roots(1e-320, 1)
        assert char_roots(1e-320, 0)[0].lam == 0j  # branch 0 needs no division

    @pytest.mark.parametrize("kmax", [2.5, "3"])
    def test_kmax_is_an_integer(self, kmax):
        with pytest.raises(ParameterDomainError, match=f"^kmax must be an integer >= 0, got {kmax!r}$"):
            char_roots(1.0, kmax)


class TestExpSymmetryFields:
    def test_fields_are_weak_symmetries(self):
        e = catalog("A4_12")
        root = char_roots(1.0, 1)[1]
        for v in exp_symmetry_fields(root):
            mx, cls = check_invariance(v, e.dods, samples=120, window=e.window)
            assert mx <= 1e-8
            assert cls is not Invariance.NOT_INVARIANT

    def test_real_root_degenerates(self):
        fake = CharacteristicRoot(1.0, 0j, 0j, 0)
        with pytest.raises(DegenerateRoot):
            exp_symmetry_fields(fake)

    def test_names(self):
        root = char_roots(1.0, 1)[1]
        c, s = exp_symmetry_fields(root)
        assert (c.name, s.name) == ("X5", "X6")


class TestBernoulliGf:
    def test_matches_closed_form_inside_disk(self):
        want = 1.0 / (1.0 - math.exp(-1.0))
        assert abs(bernoulli_gf(1.0, 20) - want) <= 1e-8

    def test_convergence_in_order(self):
        want = 2.0 / (1.0 - math.exp(-2.0))
        errs = [abs(bernoulli_gf(2.0, n) - want) for n in (6, 12, 24)]
        assert errs[0] > errs[1] > errs[2]

    def test_zero_argument(self):
        assert bernoulli_gf(0.0, 15) == 1.0

    def test_small_z_limit(self):
        assert bernoulli_gf(1e-9, 10) == pytest.approx(1.0, abs=1e-8)

    def test_outside_disk_warns(self):
        with pytest.warns(DivergenceWarning):
            bernoulli_gf(7.0, 10)

    def test_inside_disk_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bernoulli_gf(6.28, 10)

    def test_order_validated(self):
        with pytest.raises(ParameterDomainError):
            bernoulli_gf(1.0, 41)
        with pytest.raises(ParameterDomainError):
            bernoulli_gf(1.0, -1)

    @pytest.mark.parametrize("n", [2.5, "3"])
    def test_order_is_an_integer(self, n):
        with pytest.raises(ParameterDomainError, match=f"^n must be an integer >= 0, got {n!r}$"):
            bernoulli_gf(0.5, n)


class TestManifoldAgreement:
    """A system's manifold form at (x, y, g(x), ym) must give its right hand
    side's f(x, y, ym); it is checked when the partials are first built."""

    @staticmethod
    def _with_manifold(text, d=None):
        d = d or catalog("A3_5").dods
        return Dods(d.rhs, d.delay, d.domain, ex.parse(text, ("x", "y", "xm", "ym")))

    @pytest.mark.parametrize("call", [
        lambda d: check_invariance(VectorField(ex.Num(0.0), ex.parse("exp(x)")), d),
        lambda d: prolong_apply(catalog("A3_5").algebra[2], d, (0.5, 1.0, -0.5, 0.3, 0.2)),
    ], ids=["check_invariance", "prolong_apply"])
    def test_a_manifold_form_of_another_system_raises(self, call):
        # y + exp(x) is not A3_5's right hand side; before the check,
        # check_invariance called exp(x) d_y STRONG on it
        d = self._with_manifold("y + exp(x)")
        with pytest.raises(ParameterDomainError) as raised:
            call(d)
        assert str(raised.value) == (
            "the manifold form gives 1.0010832592258778 at (x, y, xm, ym) = "
            "(-0.6909830056250525, 0.5, -1.6909830056250525, -1.25), "
            "the right hand side 2.2510832592258776")

    def test_agreement_is_absolute_or_relative(self):
        # off by 5e-8, or by 5e-8 of the value, passes; by 1e-6 it does not
        base = ex.to_text(catalog("A3_5").dods.rhs_manifold)
        assert self._with_manifold(f"{base} + 5e-8").manifold_partials
        large = catalog(CatalogCase("A3_5", {"C1": 1000.0})).dods  # f ~ 1000 exp(x)
        scaled = f"({ex.to_text(large.rhs_manifold)})*(1 + 5e-8)"
        assert self._with_manifold(scaled, large).manifold_partials
        with pytest.raises(ParameterDomainError, match="the manifold form gives"):
            self._with_manifold(f"{base} + 1e-6").manifold_partials

    def test_samples_that_raise_are_skipped(self):
        # ln(x) raises left of 0, inside the window (-1, 3) of an unbounded
        # domain; the samples right of it agree
        d = Dods(LinearRhs(ex.parse("ln(x)"), ex.Num(-1.0), ex.Num(0.0)), ConstantDelay(1.0))
        assert self._with_manifold("ln(x)*y - ym", d).manifold_partials
        with pytest.raises(ParameterDomainError, match=r"^the manifold form gives .* = \(0\.30901699437494745, "):
            self._with_manifold("ln(x)*y + ym", d).manifold_partials

    @pytest.mark.parametrize("cid", [c for c in CASE_IDS if c != "A3_11"])
    def test_every_catalog_system_agrees(self, cid):
        d = catalog(cid).dods
        assert d.rhs_manifold is not None and d.manifold_partials

    @pytest.mark.parametrize("key", [variant[0] for variant in _BENCH_VARIANTS])
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_every_bench_variant_agrees(self, key, seed):
        d = catalog(_bench_case(key, seed)).dods
        assert d.rhs_manifold is not None and d.manifold_partials
