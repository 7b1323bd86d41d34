"""Prolongations, invariance checks, flows, characteristic roots."""

import cmath
import math
import pickle
import warnings

import pytest

import delaysym.expr as ex
from delaysym.delay import AffineDelay, ConstantDelay, QScaleDelay
from delaysym.dods import (
    CatalogCase,
    Dods,
    GeneralRhs,
    LinearRhs,
    catalog,
    initial_condition,
)
from delaysym.errors import (
    DegenerateRoot,
    DivergenceWarning,
    DomainError,
    NotASolution,
    ParameterDomainError,
    UnsupportedFlow,
)
from delaysym.steps import Scheme, SolverConfig, residual_scan, sample_expr, solve
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

    def test_eta_variables(self):
        with pytest.raises(ParameterDomainError):
            VectorField(ex.Num(0.0), ex.parse("ym", ("ym",)))

    def test_affine_eta_evaluation(self):
        v = VectorField(ex.Num(0.0), AffineEta(ex.parse("x"), ex.parse("x^2")))
        assert v.eta_at(2.0, 3.0) == 2 * 3 + 4
        assert v.eta_y_at(2.0, 3.0) == 2.0
        assert v.eta_x_at(2.0, 3.0) == 3 + 4.0

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
        assert v.eta_at(0.5, 9.0) == pytest.approx(0.25, abs=1e-12)
        assert v.eta_x_at(0.5, 9.0) == pytest.approx(1.0, abs=1e-12)


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

    def test_overflowing_samples_are_not_counted(self):
        # inf * x^2 is NaN at x = 0 and inf elsewhere; x^2 d_y is no symmetry,
        # so a NaN that max() dropped would have read as a strong one
        e = catalog("A4_12")
        bad = VectorField(ex.Num(0.0), ex.parse("1e999*x^2", ("x", "y")))
        with pytest.raises(DomainError, match="no valid sample points"):
            check_invariance(bad, e.dods, window=e.window)


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
