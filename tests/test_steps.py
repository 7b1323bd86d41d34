"""Method of steps solver and the piecewise solution container."""

import json
import math

import pytest

import delaysym.expr as ex
from delaysym.delay import ConstantDelay, Mesh, MoebiusDelay, QScaleDelay, build_mesh
from delaysym.dods import (
    CatalogCase,
    Dods,
    GeneralRhs,
    LinearRhs,
    catalog,
    initial_condition,
)
from delaysym.errors import (
    MeshRangeError,
    OutOfRange,
    ParameterDomainError,
    SchemeMismatch,
)
from delaysym.steps import (
    PiecewiseSolution,
    Scheme,
    Segment,
    SolverConfig,
    from_exprs,
    residual_scan,
    sample_expr,
    solution_from_json,
    solve,
)


def smoothing_instance():
    """y' = y - y-, delay 1, history (x + 1)^2 on [-1, 0].

    The first interval continuation is y = -exp(x) + (x + 1)^2 + 1, so
    y(1) = 5 - e and the slope jumps from 2 to 1 at x = 0.
    """
    d = Dods(LinearRhs(ex.Num(1.0), ex.Num(-1.0), ex.Num(0.0)), ConstantDelay(1.0))
    init = initial_condition("(x + 1)^2", d.delay, 0.0)
    return d, init


def continuation(x):
    return -math.exp(x) + (x + 1) ** 2 + 1


class TestSegment:
    def test_hermite_reproduces_cubics(self):
        # 2 point cubic Hermite data of a cubic is exact everywhere
        poly = ex.parse("x^3 - 2*x^2 + x - 1")
        dpoly = ex.differentiate(poly, "x")
        nodes = (0.0, 1.0)
        seg = Segment(
            nodes,
            tuple(ex.evaluate(poly, {"x": u}) for u in nodes),
            tuple(ex.evaluate(dpoly, {"x": u}) for u in nodes),
        )
        for t in (0.0, 0.17, 0.5, 0.83, 1.0):
            v, s = seg.evaluate(t)
            assert v == pytest.approx(ex.evaluate(poly, {"x": t}), abs=1e-14)
            assert s == pytest.approx(ex.evaluate(dpoly, {"x": t}), abs=1e-13)

    def test_interpolation_error_fourth_order(self):
        f = ex.parse("sin(3*x)")
        df = ex.differentiate(f, "x")

        def sampled(m):
            nodes = tuple(j / m for j in range(m + 1))
            return Segment(
                nodes,
                tuple(ex.evaluate(f, {"x": u}) for u in nodes),
                tuple(ex.evaluate(df, {"x": u}) for u in nodes),
            )

        def err(seg):
            return max(
                abs(seg.evaluate(t)[0] - ex.evaluate(f, {"x": t}))
                for t in (0.013 + 0.04 * i for i in range(24))
            )

        ratio = err(sampled(16)) / err(sampled(32))
        assert 12.0 < ratio < 20.0


class TestPiecewiseSolution:
    def test_segment_count_checked(self):
        mesh = Mesh((-1.0, 0.0, 1.0), ConstantDelay(1.0))
        seg = Segment((-1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        with pytest.raises(ParameterDomainError):
            PiecewiseSolution(mesh, (seg,))

    def test_continuity_checked(self):
        mesh = Mesh((-1.0, 0.0, 1.0), ConstantDelay(1.0))
        a = Segment((-1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        b = Segment((0.0, 1.0), (5.0, 6.0), (1.0, 1.0))  # jumps in value
        with pytest.raises(ParameterDomainError):
            PiecewiseSolution(mesh, (a, b))

    def test_eval_inside_and_bounds(self):
        s = sample_expr(ConstantDelay(1.0), "x^2", 0.0, 2)
        y, dl, dr = s.eval(0.5)
        assert y == pytest.approx(0.25, abs=1e-12)
        assert dl == pytest.approx(1.0, abs=1e-12)
        assert dl == dr
        with pytest.raises(OutOfRange):
            s.eval(-1.5)
        with pytest.raises(OutOfRange):
            s.value(2.5)

    def test_node_snapping(self):
        s = sample_expr(ConstantDelay(1.0), "x^2", 0.0, 1)
        y, _, _ = s.eval(1.0 + 5e-14)
        assert y == pytest.approx(1.0, abs=1e-12)
        # at, just inside and just outside the tolerance 1e-12 * (1 + |p|) of
        # every mesh point.  The smoothing example has a slope jump at x0 = 0:
        # a point that snaps to a node keeps the node's one-sided slopes, a
        # point off the node gets the segment's single slope
        d, init = smoothing_instance()
        s = solve(d, init, 3, SolverConfig(Scheme.EXACT_LINEAR, step_count=16))
        pts = s.mesh.points
        assert s.eval(0.0)[1:] == pytest.approx((2.0, 1.0), abs=1e-10)
        for offset in (5e-2, -5e-2, 0.5, -0.5, 4.0, -4.0, 1e3, -1e3):
            for p in pts:
                x = p + offset * 1e-12 * (1.0 + abs(p))
                if abs(offset) <= 1.0:
                    assert s.eval(x) == s.eval(p), (offset, p)
                elif pts[0] <= x <= pts[-1]:
                    y, dl, dr = s.eval(x)
                    assert dl == dr and y == s.value(x), (offset, p)

    def test_derivative_sides(self):
        d, init = smoothing_instance()
        s = solve(d, init, 1, SolverConfig(Scheme.EXACT_LINEAR))
        assert s.derivative(0.0, "-") == pytest.approx(2.0, abs=1e-10)
        assert s.derivative(0.0, "+") == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(ParameterDomainError):
            s.derivative(0.0, "up")

    def test_derivative_jump_indexing(self):
        d, init = smoothing_instance()
        s = solve(d, init, 3, SolverConfig(Scheme.EXACT_LINEAR))
        assert s.derivative_jump(0) == pytest.approx(-1.0, abs=1e-10)
        with pytest.raises(OutOfRange):
            s.derivative_jump(3)
        with pytest.raises(OutOfRange):
            s.derivative_jump(-1)

    def test_smoothing_ladder(self):
        # the slope mismatch lives at x0 only; one interval later the first
        # derivative is already continuous and the kink has moved to y''
        d, init = smoothing_instance()
        s = solve(d, init, 3, SolverConfig(Scheme.EXACT_LINEAR))
        assert s.derivative_jump(0) == pytest.approx(-1.0, abs=1e-10)
        assert abs(s.derivative_jump(1)) <= 1e-12
        assert abs(s.derivative_jump(2)) <= 1e-12

    def test_shifted(self):
        s = sample_expr(ConstantDelay(1.0), "x^2", 0.0, 1)
        t = s.shifted(2.0)
        assert t.x_start == 1.0
        assert t.value(2.5) == pytest.approx(0.25, abs=1e-12)

    def test_mapped(self):
        s = sample_expr(ConstantDelay(1.0), "x^2", 0.0, 1)
        t = s.mapped(2.0, "x")
        x = 0.3
        assert t.value(x) == pytest.approx(2 * x * x + x, abs=1e-12)
        assert t.derivative(x, "+") == pytest.approx(4 * x + 1, abs=1e-11)


class TestSerialization:
    def test_csv_shape(self):
        d, init = smoothing_instance()
        s = solve(d, init, 2, SolverConfig(Scheme.EXACT_LINEAR, step_count=8))
        lines = s.to_csv().splitlines()
        assert lines[0] == "x,y,ydot_left,ydot_right"
        # one row per distinct node: 3 segments of 9 nodes share 2 joints
        assert len(lines) == 1 + 3 * 9 - 2
        first = lines[1].split(",")
        assert float(first[0]) == -1.0
        # the join row carries both one sided slopes
        joint = next(r for r in lines[1:] if float(r.split(",")[0]) == 0.0)
        _, _, dl, dr = (float(v) for v in joint.split(","))
        assert dl == pytest.approx(2.0, abs=1e-10)
        assert dr == pytest.approx(1.0, abs=1e-10)

    def test_csv_ends_with_newline(self):
        s = sample_expr(ConstantDelay(1.0), "x", 0.0, 1, step_count=2)
        assert s.to_csv().endswith("\n")

    def test_json_round_trip_exact(self):
        d, init = smoothing_instance()
        s = solve(d, init, 2, SolverConfig(Scheme.EXACT_LINEAR, step_count=16))
        again = solution_from_json(s.to_json())
        assert again.mesh.points == s.mesh.points
        for a, b in zip(again.segments, s.segments):
            assert a.nodes == b.nodes
            assert a.values == b.values
            assert a.derivs == b.derivs

    def test_json_kind_checked(self):
        with pytest.raises(ParameterDomainError):
            solution_from_json(json.dumps({"kind": "mesh"}))

    def test_json_carries_delay(self):
        s = sample_expr(QScaleDelay(0.5), "x", 1.0, 1, step_count=2)
        obj = json.loads(s.to_json())
        assert obj["delay"] == "qscale(0.5)"


class TestFromExprs:
    def test_needs_two_pieces(self):
        with pytest.raises(ParameterDomainError):
            from_exprs(ConstantDelay(1.0), ["x"], 0.0)

    def test_rejects_discontinuous_pieces(self):
        with pytest.raises(ParameterDomainError):
            from_exprs(ConstantDelay(1.0), ["x", "x + 1"], 0.0)

    def test_correct_continuation_has_tiny_residual(self):
        d, _ = smoothing_instance()
        s = from_exprs(d.delay, ["(x + 1)^2", "-exp(x) + (x + 1)^2 + 1"], 0.0,
                       step_count=1024)
        assert residual_scan(s, d) <= 1e-10

    def test_wrong_closed_form_fails_residual(self):
        # the tempting closed form -4 exp(x) + (x + 2)^2 + 1 does not solve
        # the equation: its defect against y' = y - y- is -(2x + 1)
        d, _ = smoothing_instance()
        s = from_exprs(d.delay, ["(x + 1)^2", "-4*exp(x) + (x + 2)^2 + 1"], 0.0)
        assert residual_scan(s, d) >= 0.5


class TestSolve:
    def test_history_must_match_mesh(self):
        d, _ = smoothing_instance()
        bad = initial_condition("x", ConstantDelay(2.0), 0.0)
        with pytest.raises(ParameterDomainError):
            solve(d, bad, 1, SolverConfig(Scheme.EXACT_LINEAR))

    def test_smoothing_value_accuracy(self):
        d, init = smoothing_instance()
        s = solve(d, init, 1, SolverConfig(Scheme.EXACT_LINEAR))
        for i in range(11):
            x = i / 10
            assert abs(s.value(x) - continuation(x)) <= 1e-8
        assert s.value(1.0) == pytest.approx(5 - math.e, abs=1e-8)

    def test_smoothing_node_data(self):
        d, init = smoothing_instance()
        s = solve(d, init, 1, SolverConfig(Scheme.EXACT_LINEAR))
        assert s.eval(0.0) == pytest.approx((1.0, 2.0, 1.0), abs=1e-12)

    def test_residual_floor_exact_linear(self):
        d, init = smoothing_instance()
        s512 = solve(d, init, 2, SolverConfig(Scheme.EXACT_LINEAR, step_count=512))
        assert residual_scan(s512, d) <= 1e-9
        s1024 = solve(d, init, 2, SolverConfig(Scheme.EXACT_LINEAR, step_count=1024))
        assert residual_scan(s1024, d) <= 1e-10

    def test_rk4_residual_and_halving(self):
        d, init = smoothing_instance()
        r64 = residual_scan(solve(d, init, 1, SolverConfig(Scheme.RK4, step_count=64)), d)
        r128 = residual_scan(solve(d, init, 1, SolverConfig(Scheme.RK4, step_count=128)), d)
        assert r64 <= 1e-5
        assert r64 / r128 >= 8.0

    def test_schemes_agree(self):
        d, init = smoothing_instance()
        a = solve(d, init, 2, SolverConfig(Scheme.EXACT_LINEAR, step_count=256))
        b = solve(d, init, 2, SolverConfig(Scheme.RK4, step_count=256))
        xs = [-0.5 + 2.5 * i / 40 for i in range(41)]
        assert max(abs(a.value(x) - b.value(x)) for x in xs) <= 1e-9

    def test_exact_linear_needs_linear_rhs(self):
        d = Dods(GeneralRhs(ex.parse("ym", ("ym",))), ConstantDelay(1.0))
        init = initial_condition("(x + 1)^2", d.delay, 0.0)
        with pytest.raises(SchemeMismatch):
            solve(d, init, 1, SolverConfig(Scheme.EXACT_LINEAR))
        s = solve(d, init, 1, SolverConfig(Scheme.RK4))
        assert s.value(1.0) == pytest.approx(4 / 3, abs=1e-9)

    def test_forward_points_must_stay_in_domain(self):
        d = Dods(LinearRhs(ex.Num(0.0), ex.Num(1.0), ex.Num(0.0)),
                 ConstantDelay(1.0), domain=(-2.0, 1.5))
        init = initial_condition("x", d.delay, 0.0)
        with pytest.raises(MeshRangeError):
            solve(d, init, 2, SolverConfig(Scheme.EXACT_LINEAR))
        # one interval fits
        solve(d, init, 1, SolverConfig(Scheme.EXACT_LINEAR))

    def test_history_start_may_precede_domain(self):
        # moebius delay: g(x0) can sit left of the domain anchor -1/C; the
        # history is data, not an evaluation site, so this must work
        e = catalog("A4_14")
        x0 = -0.5
        assert e.dods.delay.delayed_point(x0) < e.dods.domain[0]
        init = initial_condition("x + 4", e.dods.delay, x0)
        s = solve(e.dods, init, 1, SolverConfig(Scheme.EXACT_LINEAR, step_count=256))
        assert residual_scan(s, e.dods) <= 1e-6

    def test_rk4_matches_quadratic_exactly_per_step(self):
        # rhs x -> ym with polynomial history: RK4 integrates the cubic
        # continuation without truncation error
        d = Dods(GeneralRhs(ex.parse("ym", ("ym",))), ConstantDelay(1.0))
        init = initial_condition("x^2", d.delay, 0.0)
        s = solve(d, init, 1, SolverConfig(Scheme.RK4, step_count=16))
        # y' = (x-1)^2, y(0) = 0 -> y = ((x-1)^3 + 1)/3
        for i in range(5):
            x = i / 4
            assert s.value(x) == pytest.approx(((x - 1) ** 3 + 1) / 3, abs=1e-12)

    def test_step_count_validation(self):
        with pytest.raises(ParameterDomainError):
            SolverConfig(Scheme.RK4, step_count=0)


class TestExactLinearQuadrature:
    @pytest.mark.parametrize(
        "case",
        [
            CatalogCase("A3_5"),                      # constant delay, alpha 1/C2
            CatalogCase("A3_7"),                      # moebius alpha
            CatalogCase("A3_14"),                     # pure scale alpha k/((1-q)x)
            CatalogCase("A2_1", delay="affine(0.5, 1.0)"),  # affine alpha
        ],
    )
    def test_closed_antiderivative_matches_generic(self, case):
        e = catalog(case)
        lo, hi = e.window
        # early enough in the window that two forward intervals exist even
        # for the moebius relation, whose advance map has a pole
        x0 = lo + 0.08 * (hi - lo)
        init = initial_condition("x + 4", e.dods.delay, x0)
        fast = solve(e.dods, init, 2, SolverConfig(Scheme.EXACT_LINEAR, step_count=48))
        slow = solve(e.dods, init, 2,
                     SolverConfig(Scheme.EXACT_LINEAR, step_count=48,
                                  force_generic_quadrature=True))
        worst = max(abs(a - b) for sa, sb in zip(fast.segments, slow.segments)
                    for a, b in zip(sa.values, sb.values))
        assert worst <= 1e-10

    def test_catalog_solution_reproduced(self):
        # feed the invariant solution of the exponential case as history and
        # solve forward: the numeric run must stay on it
        e = catalog("A3_5")
        A = math.e
        init = initial_condition(f"{A!r}*exp(x)", e.dods.delay, 0.0)
        s = solve(e.dods, init, 2, SolverConfig(Scheme.EXACT_LINEAR, step_count=128))
        for i in range(9):
            x = 2.0 * i / 8
            assert s.value(x) == pytest.approx(A * math.exp(x), rel=1e-9)


class TestResidualScan:
    def test_skips_history_segment(self):
        # history alone does not solve the equation; the scan must not
        # penalize it
        d, init = smoothing_instance()
        s = solve(d, init, 1, SolverConfig(Scheme.EXACT_LINEAR, step_count=512))
        assert residual_scan(s, d) <= 1e-9

    def test_flags_non_solution(self):
        # note x + 2 would NOT do here: every affine function solves
        # y' = y - y- with a unit delay
        d, _ = smoothing_instance()
        s = sample_expr(d.delay, "x^2", 0.0, 2)
        assert residual_scan(s, d) >= 0.9
