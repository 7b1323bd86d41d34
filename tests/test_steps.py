"""Method of steps solver and the piecewise solution container."""

import bisect
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaysym.expr as ex
from delaysym import steps
from delaysym.delay import (AffineDelay, ConstantDelay, GeneralDelay, Mesh, MoebiusDelay,
                            QScaleDelay, build_mesh)
from delaysym.dods import (
    CatalogCase,
    Dods,
    GeneralRhs,
    InitialCondition,
    LinearRhs,
    catalog,
    initial_condition,
    load_spec,
)
from delaysym.errors import (
    DomainError,
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


def hermite_value(seg, x):
    """The cubic Hermite value at x, point by point with the weights of
    steps._hermite: the span holding x, the end spans extended past either
    end."""
    n = seg.nodes
    j = min(max(bisect.bisect_right(n, x) - 1, 0), len(n) - 2)
    h = n[j + 1] - n[j]
    w0, w1, w2, w3 = steps._hermite((x - n[j]) / h)
    return (w0 * seg.values[j] + w1 * h * seg.derivs[j]
            + w2 * seg.values[j + 1] + w3 * h * seg.derivs[j + 1])


def hermite_slope(seg, x):
    """The cubic Hermite slope at x, point by point in Segment._read's order
    of operations, on hermite_value's span."""
    n, v, d = seg.nodes, seg.values, seg.derivs
    j = min(max(bisect.bisect_right(n, x) - 1, 0), len(n) - 2)
    h = n[j + 1] - n[j]
    t = (x - n[j]) / h
    t2 = t * t
    return ((6.0 * t2 - 6.0 * t) * (v[j] - v[j + 1]) / h + (3.0 * t2 - 4.0 * t + 1.0) * d[j]
            + (3.0 * t2 - 2.0 * t) * d[j + 1])


def bits(sol):
    """Every stored float of a solution, as exact hex strings."""
    return [[tuple(v.hex() for v in seq) for seq in (seg.nodes, seg.values, seg.derivs)]
            for seg in sol.segments]


_finite = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def segments_and_points(draw):
    gaps = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=12))
    nodes = [draw(st.floats(-5.0, 5.0))]
    for g in gaps:
        nodes.append(nodes[-1] + g)
    n = len(nodes)
    seg = Segment(tuple(nodes), tuple(draw(st.lists(_finite, min_size=n, max_size=n))),
                  tuple(draw(st.lists(_finite, min_size=n, max_size=n))))
    lo, hi = nodes[0], nodes[-1]
    near = st.sampled_from([lo, hi, math.nextafter(lo, -math.inf),
                            math.nextafter(hi, math.inf), lo - 0.5, hi + 0.5])
    points = st.one_of(st.sampled_from(nodes), st.floats(lo - 1.0, hi + 1.0), near)
    xs = draw(st.lists(points, max_size=30))
    return seg, xs + xs[:3]  # unsorted, with repeats


@st.composite
def batches_over_spans(draw):
    """A segment of a few spans and a batch read in one pass: many points per
    span, sorted, reversed or in clusters, with node hits, points one ulp
    below a node, and NaN and +-inf at the start, middle or end."""
    m = draw(st.integers(1, 6))
    start = draw(st.floats(-3.0, 3.0))
    nodes = tuple(start + 0.5 * j for j in range(m + 1))
    seg = Segment(nodes, tuple(draw(st.lists(_finite, min_size=m + 1, max_size=m + 1))),
                  tuple(draw(st.lists(_finite, min_size=m + 1, max_size=m + 1))))
    lo, hi = nodes[0] - 0.5, nodes[-1] + 0.5
    xs = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=60))
    xs += [u for u in nodes for u in (u, math.nextafter(u, -math.inf))]
    order = draw(st.sampled_from(["sorted", "reversed", "clustered", "drawn"]))
    if order == "sorted":
        xs.sort()
    elif order == "reversed":
        xs.sort(reverse=True)
    elif order == "clustered":  # runs of points about a drawn centre, in turn
        xs = [c + k * 1e-3 * (hi - lo) for c in xs[:8] for k in range(-3, 4)]
    for special in draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=3)):
        xs.insert(draw(st.sampled_from([0, len(xs) // 2, len(xs)])), special)
    return seg, xs


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


    @settings(max_examples=300, deadline=None)
    @given(segments_and_points())
    def test_batched_and_single_reads_are_the_hermite_value(self, case):
        seg, xs = case
        want = [hermite_value(seg, x).hex() for x in xs]
        assert [v.hex() for v in seg.values_at(xs)] == want
        assert [v.hex() for v in seg.values_at(iter(xs))] == want
        assert [seg.value(x).hex() for x in xs] == want
        assert [seg.evaluate(x)[0].hex() for x in xs] == want

    @settings(max_examples=300, deadline=None)
    @given(batches_over_spans())
    def test_a_batch_keeps_the_span_a_bisect_would_find(self, case):
        # _read bisects only when x leaves the span last used; every value
        # and slope must be the one read at the span bisect gives for x alone
        seg, xs = case
        want = [(hermite_value(seg, x).hex(), hermite_slope(seg, x).hex()) for x in xs]
        assert [(y.hex(), d.hex()) for y, d in seg._read(xs, True)] == want
        assert [y.hex() for y in seg.values_at(xs)] == [y for y, _ in want]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_finite, min_size=6, max_size=6), st.lists(_finite, min_size=6, max_size=6),
           st.integers(0, 63))
    def test_span_reads_are_reads_at_an_exact_fraction(self, values, derivs, k):
        # dyadic nodes and t = k/64 < 1, so every x = node + t*h is exact and
        # inside the step it was taken from
        nodes = (-1.0, -0.5, 0.25, 0.5, 2.0, 2.125)
        seg = Segment(nodes, tuple(values), tuple(derivs))
        t = k / 64
        rows = (steps._hermite(t), steps._hermite(0.5))
        xs = [u + t * (v - u) for u, v in zip(nodes, nodes[1:])]
        xs += [u + 0.5 * (v - u) for u, v in zip(nodes, nodes[1:])]
        assert ([v.hex() for v in steps._span_reads(seg, rows)]
                == [v.hex() for v in seg.values_at(xs)])


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

    def test_nan_abscissa_is_out_of_range(self):
        s = sample_expr(ConstantDelay(1.0), "x^2", 0.0, 2)
        for read in (s.value, s.eval, s.derivative):
            with pytest.raises(OutOfRange,
                               match=r"^x = nan outside the solution range \[-1\.0, 2\.0\]$"):
                read(math.nan)

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

    @pytest.mark.parametrize("source", ["exact-linear", "rk4", "solution_a4_5.json"])
    def test_csv_rows_are_the_stored_nodes_and_eval_at_mesh_points(self, source):
        if source.endswith(".json"):
            s = solution_from_json(
                (pathlib.Path(__file__).with_name("data") / source).read_text(encoding="utf-8"))
        else:
            d, init = smoothing_instance()
            s = solve(d, init, 3, SolverConfig(Scheme(source), step_count=8))

        def row(*values):
            return ",".join(format(v, ".17g") for v in values)

        # inside a segment the one stored slope fills both columns; a mesh
        # point's row is eval there, with its two one-sided slopes
        x = s.segments[0].nodes[0]
        want = ["x,y,ydot_left,ydot_right", row(x, *s.eval(x))]
        for seg in s.segments:
            want += [row(u, y, d, d) for u, y, d in
                     zip(seg.nodes[1:-1], seg.values[1:-1], seg.derivs[1:-1])]
            want.append(row(seg.nodes[-1], *s.eval(seg.nodes[-1])))
        assert s.to_csv() == "\n".join(want) + "\n"
        assert len(want) == 2 + sum(len(seg.nodes) - 1 for seg in s.segments)

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

    @pytest.mark.parametrize("case", [CatalogCase("A3_5"), CatalogCase("A3_7"),
                                      CatalogCase("A4_5")])
    def test_rk4_node_slopes_are_rhs_values(self, case):
        # the stored slope of every solved node is f(x, y, y(g(x))) read from
        # the previous segment, bit for bit
        e = catalog(case)
        lo, hi = e.window
        init = initial_condition("x + 4", e.dods.delay, lo + 0.08 * (hi - lo))
        s = solve(e.dods, init, 2, SolverConfig(Scheme.RK4, step_count=32))
        for prev, seg in zip(s.segments, s.segments[1:]):
            for x, y, dy in zip(seg.nodes, seg.values, seg.derivs):
                assert dy == e.dods.rhs_fn(x, y, prev.value(e.dods.delay.delayed_point(x)))

    @pytest.mark.parametrize("case", ["A3_5", "A3_14", "A3_7"])
    def test_rk4_linear_rhs_matches_the_generic_loop(self, case):
        # a linear right hand side and the same system written as a general
        # f have one tree, so RK4 runs one generated loop for both and gives
        # the same bits
        e = catalog(case)
        r = e.dods.rhs
        f = ex.Binary("+", ex.Binary("+", ex.Binary("*", r.alpha, ex.Var("y")),
                                     ex.Binary("*", r.beta, ex.Var("ym"))), r.gamma)
        general = Dods(GeneralRhs(f), e.dods.delay, e.dods.domain)
        lo, hi = e.window
        init = initial_condition("x + 4", e.dods.delay, lo + 0.08 * (hi - lo))
        config = SolverConfig(Scheme.RK4, step_count=32)
        steps._loop.cache_clear()
        assert bits(solve(e.dods, init, 2, config)) == bits(solve(general, init, 2, config))
        assert steps._loop.cache_info().currsize == 1

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_solve_compiles_no_rhs_fn(self, scheme):
        # each loop takes the first node's slope itself
        d = Dods(LinearRhs(ex.parse("sin(x)"), ex.Num(-1.0), ex.Num(0.5)), ConstantDelay(1.0))
        solve(d, initial_condition("x + 1", d.delay, 0.0), 2, SolverConfig(scheme, step_count=8))
        assert "rhs_fn" not in vars(d)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_moebius_pole_raises(self, scheme):
        # x0 = -1 is the pole of A3_7's x- = (x - 1)/(1 + x); every forward
        # point lies right of x0, so the pole can only meet the history start
        e = catalog("A3_7")
        init = InitialCondition(ex.Num(1.0), -3.0, -1.0)
        with pytest.raises(DomainError, match="pole at x = -1.0"):
            solve(e.dods, init, 1, SolverConfig(scheme))

    # g(x) >= x on |x - 0.6| < 0.059, inside the first interval [0, ~1]
    _BUMP = GeneralDelay(ex.parse("x - 1 + 2*exp(-200*(x - 0.6)^2)"))

    @staticmethod
    def _rk4_abscissae(a, b, m):
        """RK4's nodes on [a, b] with each step's midpoint, in marching order."""
        nodes = [a + (b - a) * j / m for j in range(m + 1)]
        out = []
        for x in nodes[:-1]:
            out += [x, x + 0.5 * ((b - a) / m)]
        return out + nodes[-1:]

    @pytest.mark.parametrize("rhs", [LinearRhs(ex.Num(-1.0), ex.Num(0.5), ex.Num(0.0)),
                                     GeneralRhs(ex.parse("-y + 0.5*ym", ("y", "ym")))])
    def test_delay_failing_mid_interval_names_the_first_abscissa(self, rhs):
        d = Dods(rhs, self._BUMP)
        init = initial_condition("1", d.delay, 0.0)
        a, b = build_mesh(d.delay, 0.0, 1).points[1:]
        m = 64
        first = next(x for x in self._rk4_abscissae(a, b, m) if not d.delay._g(x) < x)
        with pytest.raises(DomainError, match=f"not a delay at x = {first!r}:"):
            solve(d, init, 1, SolverConfig(Scheme.RK4, step_count=m))
        if isinstance(rhs, LinearRhs):
            with pytest.raises(DomainError, match="not a delay"):
                solve(d, init, 1, SolverConfig(Scheme.EXACT_LINEAR, step_count=m))

    def test_exact_linear_delay_failing_names_the_first_abscissa_in_marching_order(self):
        # exact-linear reads g at each node and then its step's three Gauss
        # points, step after step, as RK4 reads its nodes and midpoints
        d = Dods(LinearRhs(ex.Num(-1.0), ex.Num(0.5), ex.Num(0.0)), self._BUMP)
        a, b = build_mesh(d.delay, 0.0, 1).points[1:]
        m = 64
        h = (b - a) / m
        nodes = [a + (b - a) * j / m for j in range(m + 1)]
        marching = [x for t0 in nodes[:-1] for x in (t0, *(t0 + h * c for c in steps._GL_C))]
        first = next(x for x in marching if not d.delay._g(x) < x)
        with pytest.raises(DomainError, match=f"not a delay at x = {first!r}:"):
            solve(d, initial_condition("1", d.delay, 0.0), 1,
                  SolverConfig(Scheme.EXACT_LINEAR, step_count=m))

    @pytest.mark.parametrize("general", [False, True])
    def test_coefficient_leaving_its_domain_names_the_first_abscissa(self, general):
        # sqrt(0.6 - x) is real on the first interval [0, 1] only up to 0.6
        alpha = ex.parse("sqrt(0.6 - x)")
        if general:
            rhs = GeneralRhs(ex.Binary("*", alpha, ex.Var("y")))
        else:
            rhs = LinearRhs(alpha, ex.Num(0.5), ex.Num(0.0))
        d = Dods(rhs, ConstantDelay(1.0))
        first = next(x for x in self._rk4_abscissae(0.0, 1.0, 64) if 0.6 - x < 0.0)
        with pytest.raises(DomainError) as raised:
            solve(d, initial_condition("1", d.delay, 0.0), 1,
                  SolverConfig(Scheme.RK4, step_count=64))
        with pytest.raises(DomainError) as expected:
            ex.compile(alpha, ("x",))(first)
        assert str(raised.value) == str(expected.value)

    def test_step_count_validation(self):
        with pytest.raises(ParameterDomainError):
            SolverConfig(Scheme.RK4, step_count=0)

    @pytest.mark.parametrize("m", [0, -1, 2.5])
    @pytest.mark.parametrize("build", [
        lambda m: SolverConfig(Scheme.RK4, step_count=m),
        lambda m: from_exprs(ConstantDelay(1.0), ["x", "x"], 0.0, step_count=m),
        lambda m: sample_expr(ConstantDelay(1.0), "x", 0.0, 1, step_count=m),
    ], ids=["SolverConfig", "from_exprs", "sample_expr"])
    def test_step_count_is_an_integer_of_at_least_one(self, build, m):
        with pytest.raises(ParameterDomainError,
                           match=rf"^step_count must be an integer >= 1, got {m!r}$"):
            build(m)

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    @pytest.mark.parametrize("build", [
        lambda n: build_mesh(ConstantDelay(1.0), 0.0, n),
        lambda n: sample_expr(ConstantDelay(1.0), "x", 0.0, n),
        lambda n: solve(*smoothing_instance(), n),
    ], ids=["build_mesh", "sample_expr", "solve"])
    def test_interval_count_is_an_integer_of_at_least_one(self, build, n):
        with pytest.raises(ParameterDomainError,
                           match=rf"^intervals must be an integer >= 1, got {n!r}$"):
            build(n)


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
    def test_matches_fine_step_rk4(self, case):
        e = catalog(case)
        lo, hi = e.window
        # early enough in the window that two forward intervals exist even
        # for the moebius relation, whose advance map has a pole
        x0 = lo + 0.08 * (hi - lo)
        init = initial_condition("x + 4", e.dods.delay, x0)
        # m = 256: at m = 48 the cubic Hermite storage alone leaves 1.6e-9
        exact = solve(e.dods, init, 2, SolverConfig(Scheme.EXACT_LINEAR, step_count=256))
        fine = solve(e.dods, init, 2, SolverConfig(Scheme.RK4, step_count=4096))
        worst = 0.0
        for sa, sb in zip(exact.segments, fine.segments):
            assert sa.nodes == sb.nodes[::16]
            worst = max(worst, max(abs(a - b) for a, b in zip(sa.values, sb.values[::16])))
        assert worst <= 1e-10

    def test_rapidly_varying_alpha_matches_rk4(self):
        # alpha = 1 + sin(18 pi x) equals 1 at evenly spaced points of each
        # interval; the integrating factor must still see its oscillation
        d = Dods(LinearRhs(ex.parse("1 + sin(18*pi*x)"), ex.Num(-1.0), ex.Num(0.0)),
                 ConstantDelay(1.0))
        init = initial_condition("1", d.delay, 0.0)
        exact = solve(d, init, 2, SolverConfig(Scheme.EXACT_LINEAR, step_count=256))
        fine = solve(d, init, 2, SolverConfig(Scheme.RK4, step_count=1024))
        for sa, sb in zip(exact.segments, fine.segments):
            for a, b in zip(sa.values, sb.values[::4]):
                assert a == pytest.approx(b, abs=1e-6)
        assert exact.value(2.0) == pytest.approx(1.0640597, abs=1e-7)

    def test_large_solution_finishes_with_relative_residual(self):
        # y grows to ~3e13 by x = 30; a fixed cost per step keeps the march
        # finite, and the residual stays small against the solution's size
        e = catalog("A3_5")
        init = initial_condition("exp(x)", e.dods.delay, 0.0)
        s = solve(e.dods, init, 30, SolverConfig(Scheme.EXACT_LINEAR, step_count=64))
        top = max(abs(v) for seg in s.segments for v in seg.values)
        assert top > 1e13
        assert residual_scan(s, e.dods) / top <= 1e-6

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


def _abscissae_read_at_g(d, prev, nodes, h, fractions):
    """RK4's abscissae (fractions are (0.5,)) with every delayed value read
    at g(x) through Segment.values_at, as for a delay that is not affine."""
    assert fractions == (0.5,)
    xs = [0.0] * (2 * len(nodes) - 1)
    xs[::2] = nodes
    xs[1::2] = [x + 0.5 * h for x in nodes[:-1]]
    return xs, prev.values_at(map(d.delay.delayed_point, xs))


_GENERAL_RHS = pathlib.Path(__file__).with_name("data") / "general_rhs.txt"


def _affine_system(kind, general, seed):
    """A random system on a delay of the given affine kind, with x0."""
    rng = random.Random(seed)
    a, b, c = (rng.uniform(-2.0, 2.0) for _ in range(3))
    delay = {"constant": lambda: ConstantDelay(rng.uniform(0.2, 2.0)),
             "affine q < 1": lambda: AffineDelay(rng.uniform(0.4, 0.95), rng.uniform(0.2, 1.5)),
             "affine q > 1": lambda: AffineDelay(rng.uniform(1.05, 1.6), rng.uniform(0.5, 1.5)),
             "qscale": lambda: QScaleDelay(rng.uniform(0.3, 0.9))}[kind]()
    x0 = rng.uniform(0.1, 0.5)
    if general:
        rhs = GeneralRhs(ex.parse(f"{a!r}*y + {b!r}*sin(ym) + {c!r}*cos(x)",
                                  ("x", "y", "ym")))
    else:
        rhs = LinearRhs(ex.parse(f"{a!r}*sin(x)"), ex.parse(f"0.5 + {b!r}*cos(x)"),
                        ex.parse(f"{c!r}*x"))
    return Dods(rhs, delay), x0, rng.randint(2, 40)


def _rk4_read_at_g(d, init, n, config):
    """solve, with RK4 reading every delayed value at g(x)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(steps, "_delayed_abscissae", _abscissae_read_at_g)
        return solve(d, init, n, config)


class TestAffineReads:
    """RK4 reads an affine delay from the previous segment's steps, not at
    g(x), which differs only where g(x) rounds."""

    @pytest.mark.parametrize("kind", ["constant", "affine q < 1", "affine q > 1", "qscale"])
    @pytest.mark.parametrize("general", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_reads_at_g_to_a_few_ulps(self, kind, general, seed):
        d, x0, m = _affine_system(kind, general, seed)
        init = initial_condition("sin(2*x) + 1", d.delay, x0)
        config = SolverConfig(Scheme.RK4, step_count=m)
        got, want = solve(d, init, 3, config), _rk4_read_at_g(d, init, 3, config)

        def most(field):
            return max(abs(v) for seg in want.segments for v in getattr(seg, field))

        # a g(x) that rounds moves a read by up to ulp(x)*|y'|, which can be
        # many ulps of |y| where |x*y'| is large (61 of them at seed 113 of
        # "affine q < 1"); on 3,200 systems the gap stayed within 4 ulps of
        # max|y| + max|x|*max|y'|
        ulp = math.ulp(most("values") + most("nodes") * most("derivs"))
        for seg, ref in zip(got.segments, want.segments):
            assert seg.nodes == ref.nodes
            assert max(abs(y - r) for y, r in zip(seg.values, ref.values)) <= 8 * ulp

    @pytest.mark.parametrize("general", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_delay_gives_the_same_bits(self, general, seed):
        # constant(1) from x0 = 0 with 32 steps: every abscissa is dyadic and
        # g(x) = x - 1 is exact, so every read is
        d = Dods(_affine_system("constant", general, seed)[0].rhs, ConstantDelay(1.0))
        init = initial_condition("sin(2*x) + 1", d.delay, 0.0)
        config = SolverConfig(Scheme.RK4, step_count=32)
        assert bits(solve(d, init, 4, config)) == bits(_rk4_read_at_g(d, init, 4, config))

    @staticmethod
    def _counted(d, init, config):
        """The points solve passes to g one by one (delayed_point) and in a
        batch (delayed_points) that are not mesh points (the mesh checks its
        own links), and how many times it reads a segment through
        Segment._read."""
        points, batched, reads = [], [], []
        cls = type(d.delay)
        delayed_point, delayed_points, read = cls.delayed_point, cls.delayed_points, Segment._read

        def counting_point(self, x):
            points.append(x)
            return delayed_point(self, x)

        def counting_points(self, xs):
            batched.extend(xs)
            return delayed_points(self, xs)

        def counting_read(self, xs, slopes):
            reads.append(None)
            return read(self, xs, slopes)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cls, "delayed_point", counting_point)
            mp.setattr(cls, "delayed_points", counting_points)
            mp.setattr(Segment, "_read", counting_read)
            mesh = solve(d, init, 2, config).mesh.points
        return ([x for x in points if x not in mesh], [x for x in batched if x not in mesh],
                len(reads))

    @pytest.mark.parametrize("kind", ["constant", "affine q < 1", "affine q > 1", "qscale"])
    @pytest.mark.parametrize("general", [False, True])
    def test_affine_solve_takes_no_delayed_point_past_the_history(self, kind, general):
        d, x0, m = _affine_system(kind, general, 1)
        init = initial_condition("sin(2*x) + 1", d.delay, x0)
        assert self._counted(d, init, SolverConfig(Scheme.RK4, step_count=m)) == ([], [], 0)

    @pytest.mark.parametrize("delay, x0", [(MoebiusDelay(1.0), -0.3),
                                           (GeneralDelay(ex.parse("x - 1 - sin(x)/10")), 0.3)])
    @pytest.mark.parametrize("general", [False, True])
    def test_other_delays_still_read_at_g(self, delay, x0, general):
        d = Dods(_affine_system("constant", general, 1)[0].rhs, delay)
        init = initial_condition("sin(2*x) + 1", delay, x0)
        points, batched, reads = self._counted(d, init, SolverConfig(Scheme.RK4, step_count=16))
        # each interval's 17 nodes and 16 midpoints, but those that are mesh
        # points, go to g in one delayed_points batch, which takes none of
        # them through delayed_point
        assert points == [] and len(batched) >= 2 * 31 and reads >= 2


# The steppers as they were before the generated loops: RK4 as four rhs_fn
# calls per step, and for a linear right hand side alpha, beta and gamma
# compiled one by one and called point by point, the integrating factors
# summed in list passes.  They are the bit-for-bit reference.


def _rk4_per_point(d, prev, nodes, h):
    rhs_fn = d.rhs_fn
    xs, yms = steps._delayed_abscissae(d, prev, nodes, h, (0.5,))
    y = prev.values[-1]
    values = [y]
    derivs = []
    for j in range(0, len(xs) - 1, 2):
        x, xh, x1 = xs[j], xs[j + 1], xs[j + 2]
        k1 = rhs_fn(x, y, yms[j])
        k2 = rhs_fn(xh, y + 0.5 * h * k1, yms[j + 1])
        k3 = rhs_fn(xh, y + 0.5 * h * k2, yms[j + 1])
        k4 = rhs_fn(x1, y + h * k3, yms[j + 2])
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values.append(y)
        derivs.append(k1)
    derivs.append(rhs_fn(xs[-1], y, yms[-1]))
    return Segment(nodes, tuple(values), tuple(derivs))


def _coefficient_fns(d):
    r = d.rhs
    return tuple(ex.compile(c, ("x",)) for c in (r.alpha, r.beta, r.gamma))


def _rk4_linear_per_point(d, prev, nodes, h):
    alpha_f, beta_f, gamma_f = _coefficient_fns(d)
    xs, yms = steps._delayed_abscissae(d, prev, nodes, h, (0.5,))
    terms = [(alpha_f(x), beta_f(x) * ym, gamma_f(x)) for x, ym in zip(xs, yms)]
    half, sixth = 0.5 * h, h / 6.0
    y = prev.values[-1]
    values = [y]
    derivs = []
    a, bym, c = terms[0]
    for j in range(1, len(terms), 2):
        ah, bymh, ch = terms[j]
        k1 = (a * y + bym) + c
        k2 = (ah * (y + half * k1) + bymh) + ch
        k3 = (ah * (y + half * k2) + bymh) + ch
        a, bym, c = terms[j + 1]
        k4 = (a * (y + h * k3) + bym) + c
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values.append(y)
        derivs.append(k1)
    derivs.append((a * y + bym) + c)
    return Segment(nodes, tuple(values), tuple(derivs))


def _exact_linear_per_point(d, prev, nodes, h):
    """In solve's order: every delayed value, in marching order; alpha at
    every step's first Gauss point, then second, then third; the first
    node's slope; then per step the forcing at its Gauss points, the
    integrating factors, y and the next node's slope."""
    alpha_f, beta_f, gamma_f = _coefficient_fns(d)
    n = len(nodes) - 1
    pts = [[t0 + h * c for c in steps._GL_C] for t0 in nodes[:-1]]
    pn, pv, pd = prev.nodes, prev.values, prev.derivs
    if d.delay.affine_parameters() is not None:
        spans = list(zip(pv, pv[1:], pd, pd[1:], [t1 - t0 for t0, t1 in zip(pn, pn[1:])]))
        delayed = [[w0 * v0 + w1 * hp * d0 + w2 * v1 + w3 * hp * d1
                    for w0, w1, w2, w3 in map(steps._hermite, steps._GL_C)]
                   for v0, v1, d0, d1, hp in spans]
        at_nodes = pv
    else:
        marching = [x for t0, row in zip(nodes, pts) for x in (t0, *row)] + [nodes[-1]]
        reads = prev.values_at(map(d.delay.delayed_point, marching))
        delayed = [reads[4 * j + 1:4 * j + 4] for j in range(n)]
        at_nodes = reads[::4]
    alphas = [list(map(alpha_f, col)) for col in zip(*pts)]

    def factors(weights, j):
        rise = 0.0
        for w, col in zip(weights, alphas):
            rise = rise + w * col[j]
        return math.exp(h * rise)

    def slope(u, yv, ym):
        return alpha_f(u) * yv + (beta_f(u) * ym + gamma_f(u))

    y = pv[-1]
    values = [y]
    derivs = [slope(nodes[0], y, at_nodes[0])]
    for j in range(n):
        forcing = [beta_f(u) * ym + gamma_f(u) for u, ym in zip(pts[j], delayed[j])]
        duhamel = 0.0
        for weight, tail, f in zip(steps._GL_B, steps._GL_TAIL, forcing):
            duhamel = duhamel + weight * factors(tail, j) * f
        y = factors(steps._GL_B, j) * y + h * duhamel
        values.append(y)
        derivs.append(slope(nodes[j + 1], y, at_nodes[j + 1]))
    return Segment(nodes, tuple(values), tuple(derivs))


def _per_point_outcome(d, init, n, config, outcome=None):
    """solve's to_json, or its error, or what outcome gives, with the
    per-point steppers."""
    rk4 = _rk4_linear_per_point if isinstance(d.rhs, LinearRhs) else _rk4_per_point
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(steps, "_rk4_interval", rk4)
        mp.setattr(steps, "_exact_linear_interval", _exact_linear_per_point)
        return (outcome or _solve_outcome)(d, init, n, config)


# coefficients that leave their domain or overflow inside the first
# intervals of _scan_system's delays, and coefficients that do not
_FAILING = ("sqrt(0.6 - x)", "ln(0.7 - x)", "exp(1000*x)", "1/(x - 0.5)", "sqrt(x - 0.3)",
            "ln(x - 0.2)", "tan(x)", "exp(300*x) - 1")
_FINE = ("0.5", "sin(x)", "-1 + x/4", "cos(3*x)", "1e5", "-2")


def _solve_outcome(d, init, n, config):
    try:
        return "value", solve(d, init, n, config).to_json()
    except Exception as exc:
        return type(exc), str(exc)


def _solve_bits(d, init, n, config):
    """bits() of solve, or its error's class and message."""
    try:
        return "value", bits(solve(d, init, n, config))
    except Exception as exc:
        return type(exc), str(exc)


def _sources(action):
    """The generated sources that action compiles from empty caches."""
    seen, inner = [], ex._bytecode
    ex._generate.cache_clear()
    steps._loop.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "_bytecode", lambda s: (seen.append(s), inner(s))[1])
        action()
    return seen


class TestColumnKernels:
    @pytest.mark.parametrize("case", [
        CatalogCase("A3_5"), CatalogCase("A3_7", {"C2": 0.2}), CatalogCase("A3_14"),
        CatalogCase("A4_21"), CatalogCase("A4_5")])
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("phi", ["x + 4", "sin(3*x) + 2"])
    def test_solves_equal_the_per_point_steppers(self, case, scheme, phi):
        e = catalog(case)
        lo, hi = e.window
        init = initial_condition(phi, e.dods.delay, lo + 0.08 * (hi - lo))
        config = SolverConfig(scheme, step_count=64)
        want = _per_point_outcome(e.dods, init, 3, config)
        assert want[0] == "value"
        assert _solve_outcome(e.dods, init, 3, config) == want

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*[st.floats(-6.0, 6.0)] * 3), st.integers(1, 8), st.integers(1, 5),
           st.sampled_from(list(Scheme)))
    def test_coarse_steps_equal_the_per_point_steppers(self, coefficients, m, n, scheme):
        # h*alpha up to order ten, so the rounding of every exponent sum can
        # show through exp; a general delay takes the read without the
        # affine map
        wave = ex.parse("a*sin(5*x) + b + c*x", ("a", "b", "c", "x"))
        alpha = ex.substitute(wave, dict(zip("abc", map(ex.Num, coefficients))))
        d = Dods(LinearRhs(alpha, ex.parse("0.5 + x/4"), ex.parse("cos(3*x)")),
                 GeneralDelay(ex.parse("x - 1 - sin(x)/10")))
        init = initial_condition("sin(2*x) + 1", d.delay, 0.3)
        config = SolverConfig(scheme, step_count=m)
        assert _solve_outcome(d, init, n, config) == _per_point_outcome(d, init, n, config)

    @pytest.mark.parametrize("rhs", [
        LinearRhs(ex.parse("sqrt(0.6 - x)"), ex.Num(0.5), ex.Num(0.0)),
        LinearRhs(ex.Num(0.5), ex.parse("-1/(x - 0.4)"), ex.parse("ln(0.7 - x)")),
        LinearRhs(ex.parse("exp(1000*x)"), ex.Num(0.5), ex.Num(0.0)),
    ])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_errors_equal_the_per_point_steppers(self, rhs, scheme):
        d = Dods(rhs, ConstantDelay(1.0))
        init = initial_condition("1", d.delay, 0.0)
        config = SolverConfig(scheme, step_count=64)
        want = _per_point_outcome(d, init, 1, config)
        assert want[0] is DomainError
        assert _solve_outcome(d, init, 1, config) == want

    @pytest.mark.parametrize("alpha, beta, message", [
        # ln(0.7 - x) fails first at the third Gauss point of the step from
        # 0.6875, before the first Gauss point of the step from 0.703125
        # that a forcing taken over the whole interval would meet first
        ("0.5", "-1/(x - 0.4)", "ln of non-positive value -0.001364036478449182"),
        # the first step's integrating factors overflow before any forcing
        # past x = 0.7 is taken
        ("1e5", "0.5", "the integrating factor overflows on the interval [0.0, 1.0]"),
    ])
    def test_exact_linear_takes_the_forcing_step_by_step(self, alpha, beta, message):
        d = Dods(LinearRhs(ex.parse(alpha), ex.parse(beta), ex.parse("ln(0.7 - x)")),
                 ConstantDelay(1.0))
        init = initial_condition("1", d.delay, 0.0)
        config = SolverConfig(Scheme.EXACT_LINEAR, step_count=64)
        assert _solve_outcome(d, init, 1, config) == (DomainError, message)

    @pytest.mark.parametrize("kind", ["constant", "affine q < 1", "affine q > 1", "qscale",
                                      "moebius", "general"])
    @pytest.mark.parametrize("seed", range(12))
    def test_failing_coefficients_equal_the_per_point_steppers(self, kind, seed):
        # random linear systems with at least one coefficient that leaves its
        # domain or overflows somewhere on the first intervals
        rng = random.Random(seed)
        picks = [rng.choice(_FAILING if rng.random() < 0.45 else _FINE) for _ in range(3)]
        if not set(picks) & set(_FAILING):
            picks[rng.randrange(3)] = rng.choice(_FAILING)
        base, x0 = _scan_system(kind, False, seed)
        d = Dods(LinearRhs(*map(ex.parse, picks)), base.delay)
        init = initial_condition(rng.choice(["1", "sin(2*x) + 1", "x"]), d.delay, x0)
        m, n = rng.choice([1, 3, 16, 64]), rng.randint(1, 3)
        for scheme in Scheme:
            config = SolverConfig(scheme, step_count=m)
            got, want = _solve_outcome(d, init, n, config), _per_point_outcome(d, init, n, config)
            if want == (OverflowError, "math range error"):  # the reference's bare factor exp
                want = (DomainError, got[1])
                assert got[1].startswith("the integrating factor overflows on the interval")
            assert got == want, (picks, scheme)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_signed_zeros_equal_the_per_point_steppers(self, scheme):
        # a -0.0 history and forcing: the sums start from 0.0, which decides
        # the sign of every stored zero
        d = Dods(LinearRhs(ex.Num(1.0), ex.Num(-1.0), ex.Num(-0.0)), ConstantDelay(1.0))
        init = initial_condition(ex.Num(-0.0), d.delay, 0.0)
        config = SolverConfig(scheme, step_count=8)
        want = _per_point_outcome(d, init, 2, config)
        assert want[0] == "value"
        assert _solve_outcome(d, init, 2, config) == want

    def test_integrating_factor_overflow_as_before(self):
        # h*alpha = 1e5/64 overflows exp in the step: the per-point stepper
        # meets a bare OverflowError there, which solve reports as a
        # DomainError naming the interval
        d = Dods(LinearRhs(ex.Num(1e5), ex.Num(0.5), ex.Num(1.0)), ConstantDelay(1.0))
        init = initial_condition("1", d.delay, 0.0)
        config = SolverConfig(Scheme.EXACT_LINEAR, step_count=64)
        assert _per_point_outcome(d, init, 1, config) == (OverflowError, "math range error")
        assert _solve_outcome(d, init, 1, config) == (
            DomainError, "the integrating factor overflows on the interval [0.0, 1.0]")

    @pytest.mark.parametrize("rhs", [
        LinearRhs(ex.Num(1e5), ex.Num(0.5), ex.Num(1.0)),
        GeneralRhs(ex.parse("1e5*y + 0.5*ym + 1", ("x", "y", "ym"))),
    ])
    def test_rk4_overflow_is_a_domain_error(self, rhs):
        # RK4 has no exp to overflow: y grows past the largest float to inf
        # and stays there, so the interval's last value and slope tell
        d = Dods(rhs, ConstantDelay(1.0))
        init = initial_condition("1", d.delay, 0.0)
        config = SolverConfig(Scheme.RK4, step_count=64)
        want = (DomainError, "the solution is not finite on the interval [0.0, 1.0]")
        assert _solve_outcome(d, init, 1, config) == want
        assert _per_point_outcome(d, init, 1, config) == want

    def test_exact_linear_coefficient_leaving_its_domain_names_the_first_gauss_point(self):
        # sqrt(0.6 - x) is real on the first interval [0, 1] only up to 0.6;
        # exact-linear takes alpha at the first Gauss point of every step,
        # then at the second and the third
        alpha = ex.parse("sqrt(0.6 - x)")
        d = Dods(LinearRhs(alpha, ex.Num(0.5), ex.Num(0.0)), ConstantDelay(1.0))
        h = 1.0 / 64
        gauss = [j / 64 + h * c for c in steps._GL_C for j in range(64)]
        first = next(x for x in gauss if 0.6 - x < 0.0)
        with pytest.raises(DomainError) as raised:
            solve(d, initial_condition("1", d.delay, 0.0), 1,
                  SolverConfig(Scheme.EXACT_LINEAR, step_count=64))
        with pytest.raises(DomainError) as expected:
            ex.compile(alpha, ("x",))(first)
        assert str(raised.value) == str(expected.value)

    def test_alpha_fails_before_an_earlier_beta_failure(self):
        # beta leaves its domain past x = 0.3, alpha only past 0.8: alpha is
        # taken at every Gauss point before beta is, so alpha's error names
        # the first Gauss point past 0.8
        alpha, beta = ex.parse("sqrt(0.8 - x)"), ex.parse("sqrt(0.3 - x)")
        d = Dods(LinearRhs(alpha, beta, ex.Num(0.0)), ConstantDelay(1.0))
        h = 1.0 / 64
        first = next(j / 64 + h * steps._GL_C[0] for j in range(64)
                     if 0.8 - (j / 64 + h * steps._GL_C[0]) < 0.0)
        with pytest.raises(DomainError) as raised:
            solve(d, initial_condition("1", d.delay, 0.0), 1,
                  SolverConfig(Scheme.EXACT_LINEAR, step_count=64))
        with pytest.raises(DomainError) as expected:
            ex.compile(alpha, ("x",))(first)
        assert str(raised.value) == str(expected.value)

    @staticmethod
    def _non_affine(kind, alpha, beta):
        """A system on a Moebius or a general delay, its history from x0 and
        its first interval [a, b]; alpha and beta are templates in a and b."""
        delay, x0 = ((MoebiusDelay(1.0), -0.3) if kind == "moebius"
                     else (GeneralDelay(ex.parse("x - 1 - sin(x)/10")), 0.3))
        a, b = build_mesh(delay, x0, 1).points[1:]
        rhs = LinearRhs(*(ex.parse(c.format(a=a, b=b)) for c in (alpha, beta, "cos(x)")))
        return Dods(rhs, delay), initial_condition("sin(2*x) + 1", delay, x0), a, b

    @pytest.mark.parametrize("kind", ["moebius", "general"])
    def test_alpha_failing_late_beats_an_earlier_forcing_failure(self, kind):
        # beta leaves its domain 30 % into the first interval, alpha only at
        # 80 %: the loop meets beta first, and alpha, taken over every Gauss
        # point after it fails, raises its first failure in column order
        d, init, a, b = self._non_affine(kind, "sqrt(({a!r} + 0.8*({b!r} - {a!r})) - x)",
                                         "sqrt(({a!r} + 0.3*({b!r} - {a!r})) - x)")
        m, h = 16, (b - a) / 16
        nodes = [a + (b - a) * j / m for j in range(m + 1)]
        gauss = [t0 + h * c for c in steps._GL_C for t0 in nodes[:-1]]
        first = next(x for x in gauss if (a + 0.8 * (b - a)) - x < 0.0)
        with pytest.raises(DomainError) as expected:
            ex.compile(d.rhs.alpha, ("x",))(first)
        config = SolverConfig(Scheme.EXACT_LINEAR, step_count=m)
        want = (DomainError, str(expected.value))
        assert _per_point_outcome(d, init, 1, config) == want
        assert _solve_outcome(d, init, 1, config) == want

    @pytest.mark.parametrize("kind", ["moebius", "general"])
    def test_alpha_fails_at_its_first_point_column_by_column(self, kind):
        # alpha leaves its domain only about the third Gauss point of step 1
        # and the second of step 5: the loop meets step 1's first, but alpha
        # is taken at every first Gauss point, then every second, then every
        # third, so step 5's failure is raised
        d, init, a, b = self._non_affine(kind, "0.5", "0.5")
        m, h = 16, (b - a) / 16
        nodes = [a + (b - a) * j / m for j in range(m + 1)]
        late, early = nodes[1] + h * steps._GL_C[2], nodes[5] + h * steps._GL_C[1]
        alpha = ex.parse(" + ".join(f"sqrt((x - {p - 0.05 * h!r})*(x - {p + 0.05 * h!r}))"
                                    for p in (late, early)))
        d = Dods(LinearRhs(alpha, d.rhs.beta, d.rhs.gamma), d.delay)
        with pytest.raises(DomainError) as expected:
            ex.compile(alpha, ("x",))(early)
        config = SolverConfig(Scheme.EXACT_LINEAR, step_count=m)
        want = (DomainError, str(expected.value))
        assert _per_point_outcome(d, init, 1, config) == want
        assert _solve_outcome(d, init, 1, config) == want

    @pytest.mark.parametrize("kind", ["moebius", "general"])
    def test_a_loop_error_is_reraised_when_alpha_is_fine(self, kind):
        # alpha is real everywhere, so the loop's own error, beta's at its
        # first abscissa in marching order, comes out as it was raised
        d, init, a, b = self._non_affine(kind, "sin(x)", "ln(({a!r} + 0.45*({b!r} - {a!r})) - x)")
        config = SolverConfig(Scheme.EXACT_LINEAR, step_count=16)
        raised, loop = [], steps._loop

        def recording(scheme, trees):
            stepper = loop(scheme, trees)

            def run(*args):
                try:
                    return stepper(*args)
                except DomainError as exc:
                    raised.append(exc)
                    raise
            return run

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(steps, "_loop", recording)
            with pytest.raises(DomainError) as got:
                solve(d, init, 1, config)
        assert raised == [got.value] and str(got.value).startswith("ln of non-positive value")
        assert _per_point_outcome(d, init, 1, config) == (DomainError, str(got.value))

    @pytest.mark.parametrize("kind", ["moebius", "general"])
    def test_alpha_kernel_compiled_only_after_a_loop_error(self, kind):
        # alpha 1/(x + 5) on a Moebius or a general delay: a solve that
        # succeeds compiles the history's one kernel, the loop and, for the
        # general delay, g's column pass; one whose forcing fails compiles
        # its own loop and alpha's column kernel as well, and nothing else
        fine, init, a, b = self._non_affine(kind, "1/(x + 5)", "0.5")
        beta = ex.parse(f"ln({b!r} - 0.01 - x)")
        failing = Dods(LinearRhs(fine.rhs.alpha, beta, fine.rhs.gamma), fine.delay)
        config = SolverConfig(Scheme.EXACT_LINEAR, step_count=16)

        def solving(d):
            return lambda: _solve_outcome(d, initial_condition("sin(2*x) + 1", d.delay, init.x0),
                                          1, config)

        ok, failed = _sources(solving(fine)), _sources(solving(failing))
        assert _solve_outcome(failing, init, 1, config)[0] is DomainError
        assert len(ok) == 1 + 1 + (kind == "general")
        assert sum("the integrating factor overflows" in s for s in ok) == 1
        (alpha_kernel,) = _sources(lambda: ex.compile_columns((fine.rhs.alpha,), ("x",)))
        assert alpha_kernel not in ok and len(failed) == len(ok) + 1 and alpha_kernel in failed

    def test_one_kernel_set_per_scheme(self):
        e = catalog("A3_14")
        init = initial_condition("x + 4", e.dods.delay, 1.0)
        general, _ = load_spec(_GENERAL_RHS.read_text())
        general_init = initial_condition("x + 4", general.delay, 0.0)

        def solving():
            for scheme in (Scheme.RK4, Scheme.RK4, Scheme.EXACT_LINEAR, Scheme.EXACT_LINEAR):
                solve(e.dods, init, 2, SolverConfig(scheme, step_count=16))
            for _ in range(2):
                solve(general, general_init, 3, SolverConfig(Scheme.RK4, step_count=16))

        seen = _sources(solving)  # every build from empty caches
        # one column kernel for the history and its slope, kept on the
        # history record, then for A3_14 one rk4 loop and one exact-linear
        # loop, which takes alpha itself, and one rk4 loop for the general
        # system, each built once and the loops reused across intervals;
        # no rhs_fn, and no column kernel for alpha
        assert len(seen) == 1 + 1 + 1 + 1
        assert sum(" in zip(" in s or " in c0:" in s for s in seen) == 1 + 1 + 1 + 1
        assert sum(" in c0:" in s for s in seen) == 1
        assert sum("derivs.append(s1)" in s for s in seen) == 2
        assert sum("the integrating factor overflows" in s for s in seen) == 1

    def test_generated_source_does_not_depend_on_hash_order(self):
        # record every source that solves of three systems generate under
        # both schemes, under two hash seeds: the source, and so the cache
        # of generated functions, may not depend on hash order
        code = ("import sys, hashlib; sys.path.insert(0, sys.argv[1]); "
                "import delaysym.expr as ex; from delaysym import dods, steps; "
                "seen = []; inner = ex._bytecode; "
                "ex._bytecode = lambda s: (seen.append(s), inner(s))[1]; "
                "[steps.solve(e.dods, dods.initial_condition('x + 4', e.dods.delay, "
                " e.window[0] + 0.08 * (e.window[1] - e.window[0])), 2, "
                " steps.SolverConfig(scheme, step_count=8)) "
                " for e in map(dods.catalog, ('A3_7', 'A3_14', 'A4_21')) for scheme in steps.Scheme]; "
                "print(len(seen), sum(' in zip(' in s for s in seen), "
                "hashlib.sha256('\\n'.join(seen).encode()).hexdigest())")
        src = str(pathlib.Path(steps.__file__).parents[1])
        outs = {subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                               text=True, check=True, timeout=60,
                               env={**os.environ, "PYTHONHASHSEED": seed}).stdout
                for seed in ("0", "12345")}
        assert len(outs) == 1
        count, columns, _ = outs.pop().split()
        # each set of trees compiles once: per system the rk4 loop and the
        # exact-linear loop, which takes alpha itself; and one over one
        # column, the history x + 4 with its slope, which all six solves share
        assert int(count) == 3 * 2 + 1 and int(columns) == 3 * 2


class TestLoopInvariants:
    """Work that cannot change inside an interval or a node set is done once:
    exact-linear's factors under an alpha without x, the history with its
    slope, integer powers inline and the node tuples; every bit and first
    error as before."""

    _DELAYS = {"constant": (ConstantDelay(1.0), 0.0), "qscale": (QScaleDelay(0.5), 0.6),
               "general": (GeneralDelay(ex.parse("x - 1 - sin(x)/10")), 0.3)}

    @pytest.mark.parametrize("kind", list(_DELAYS))
    @pytest.mark.parametrize("alpha", ["0.75", "-2", "2*3", "-0.5", "0"])
    def test_constant_alpha_equals_the_per_point_stepper(self, kind, alpha):
        delay, x0 = self._DELAYS[kind]
        d = Dods(LinearRhs(ex.parse(alpha), ex.parse("0.5 + x/4"), ex.parse("cos(3*x)")), delay)
        init = initial_condition("sin(2*x) + 1", delay, x0)
        for m, n in ((1, 1), (7, 2), (64, 3)):
            config = SolverConfig(Scheme.EXACT_LINEAR, step_count=m)
            want = _per_point_outcome(d, init, n, config, _solve_bits)
            assert want[0] == "value"
            assert _solve_bits(d, init, n, config) == want

    @pytest.mark.parametrize("alpha, once", [("0.75", True), ("2*3", True), ("-0.5", True),
                                             ("sin(2)", True), ("sin(x)", False),
                                             ("x - x", False), ("x", False)])
    def test_factors_leave_the_loop_only_for_an_alpha_without_x(self, alpha, once):
        # by structure: alpha's three Gauss-point stages add no statement; a
        # bare x adds none of its own but the float() line of its first use
        r = LinearRhs(ex.parse(alpha), ex.Num(0.5), ex.parse("cos(x)"))
        forcing = ex.Binary("+", ex.Binary("*", r.beta, steps._YM), r.gamma)
        slope = ex.Binary("+", ex.Binary("*", r.alpha, steps._Y), forcing)
        (source,) = _sources(lambda: steps._loop(Scheme.EXACT_LINEAR, (forcing, slope, r.alpha)))
        assert (source.index("e0 = exp") < source.index(" for ")) is once
        assert source.count("e0 = exp") == 1

    @pytest.mark.parametrize("gamma, message", [
        # the factors of h*alpha = 1e5/64 overflow, and the first step's
        # forcing is fine: the overflow is raised at step 1
        ("1", "the integrating factor overflows on the interval [0.0, 1.0]"),
        # the forcing fails at step 1's first Gauss point: its error comes
        # before the factors', hoisted or not
        ("ln(0.001 - x)", "ln of non-positive value -0.0007609635215509109"),
        # the forcing fails only at step 2: step 1's factors overflow first
        ("ln(0.02 - x)", "the integrating factor overflows on the interval [0.0, 1.0]"),
    ])
    @pytest.mark.parametrize("alpha", ["1e5", "5e4*2"])
    def test_overflowing_constant_alpha_raises_after_the_first_forcing(self, alpha, gamma,
                                                                       message):
        d = Dods(LinearRhs(ex.parse(alpha), ex.Num(0.5), ex.parse(gamma)), ConstantDelay(1.0))
        init = initial_condition("1", d.delay, 0.0)
        config = SolverConfig(Scheme.EXACT_LINEAR, step_count=64)
        want = _per_point_outcome(d, init, 1, config, _solve_bits)
        if want == (OverflowError, "math range error"):  # the reference's bare factor exp
            want = (DomainError, "the integrating factor overflows on the interval [0.0, 1.0]")
        assert _solve_bits(d, init, 1, config) == want == (DomainError, message)

    _FAILING_PHI = "sqrt(x + 1) + ln(-0.5 - x)"  # phi' fails at x = -1, phi only at -0.5

    def _phi_error(self, xs):
        with pytest.raises(DomainError) as caught:
            ex.compile_columns((ex.parse(self._FAILING_PHI),), ("x",))(xs)
        return DomainError, str(caught.value)

    def _outcome(self, action):
        try:
            return "value", action()
        except Exception as exc:
            return type(exc), str(exc)

    def test_history_raises_phi_before_an_earlier_slope_failure(self):
        d, _ = smoothing_instance()
        init = initial_condition(self._FAILING_PHI, d.delay, 0.0)
        nodes = steps._nodes(-1.0, 0.0, 16)
        want = self._phi_error(nodes)
        assert want == (DomainError, "ln of non-positive value 0.0")
        for scheme in Scheme:
            assert self._outcome(lambda: solve(d, init, 1, SolverConfig(scheme, 16))) == want
        assert self._outcome(lambda: sample_expr(d.delay, self._FAILING_PHI, 0.0, 1, 16)) == want
        assert self._outcome(
            lambda: from_exprs(d.delay, [self._FAILING_PHI, "1"], 0.0, 16)) == want
        sol = sample_expr(d.delay, "x", 0.0, 1, 16)
        assert self._outcome(lambda: sol.mapped(2.0, self._FAILING_PHI)) == want

    def test_history_compiles_one_kernel_unless_it_fails(self):
        d, _ = smoothing_instance()
        config = SolverConfig(Scheme.RK4, 16)

        def solving(phi):
            return lambda: self._outcome(
                lambda: solve(d, initial_condition(phi, d.delay, 0.0), 1, config))

        # one kernel of phi with phi'; where it fails, phi's own, and phi''s
        # only if phi's passes
        for phi, kernels in (("x^3 + ln(2 - x)", 1), (self._FAILING_PHI, 2), ("sqrt(x + 1)", 3)):
            assert sum(" in c0:" in s for s in _sources(solving(phi))) == kernels

    @pytest.mark.parametrize("phi", ["(x + 1)^3 - x^2", "x^4*sin(x) + (x - 0.5)^1",
                                     "sqrt(1 + x^2)*exp(atan(x))"])
    def test_history_with_its_slope_equals_two_kernels(self, phi):
        e = ex.parse(phi)
        xs = [-0.0, 0.0, -1.5, 0.5, -1e200, math.nan, -math.inf, *steps._nodes(-1.0, 0.5, 9)]
        got = self._outcome(lambda: [list(map(float.hex, c)) for c in steps._with_slope(e)(xs)])
        want = self._outcome(lambda: [list(map(float.hex, ex.compile_columns((t,), ("x",))(xs)[0]))
                                      for t in (e, ex.differentiate(e, "x"))])
        assert got == want

    def test_a_repeated_piece_builds_its_history_function_once(self, monkeypatch):
        built, inner = [], steps._with_slope
        monkeypatch.setattr(steps, "_with_slope", lambda e: (built.append(e), inner(e))[1])
        one = sample_expr(ConstantDelay(1.0), "x", 0.0, 3, 8)
        two = from_exprs(ConstantDelay(1.0), ["x", "x^3", "x"], 0.0, 8)
        assert built == [ex.parse("x"), ex.parse("x"), ex.parse("x^3")]
        assert two.segments[::2] == one.segments[:3:2]

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(1e-9, 1e6), st.integers(1, 300))
    def test_nodes_are_the_step_fractions_bit_for_bit(self, a, w, m):
        b = a + w
        want = tuple(a + (b - a) * j / m for j in range(m + 1))
        assert list(map(float.hex, steps._nodes(a, b, m))) == list(map(float.hex, want))


def _residual_scan_per_sample(s, d):
    """residual_scan as it was before it read a segment in one pass, the
    bit-for-bit reference: at each sample in turn g(x), the segment's value
    and slope at x, the solution's value at g(x), then f."""
    rhs, g, pts = d.rhs_fn, d.delay.delayed_point, s.mesh.points
    worst = 0.0
    for n in range(1, len(s.segments)):
        lo, hi = pts[n], pts[n + 1]
        for i in range(48):
            x = lo + (hi - lo) * ((i + 0.6180339887498949) / 48)
            xm = g(x)
            y, dy = s.segments[n].evaluate(x)
            r = abs(dy - rhs(x, y, s.value(xm)))
            if not math.isfinite(r):
                raise DomainError(f"the residual at x = {x!r} is {r!r}, not finite")
            worst = max(worst, r)
    return worst


def _scan_system(kind, general, seed):
    """_affine_system's system and x0, or its right hand side on a Moebius or
    a general delay."""
    if kind == "moebius":
        return Dods(_affine_system("constant", general, seed)[0].rhs, MoebiusDelay(1.0)), -0.3
    if kind == "general":
        delay = GeneralDelay(ex.parse("x - 1 - sin(x)/10"))
        return Dods(_affine_system("constant", general, seed)[0].rhs, delay), 0.3
    return _affine_system(kind, general, seed)[:2]


def _scan_counting_lookups(s, d):
    """residual_scan, and how many points it read through
    PiecewiseSolution.value."""
    calls, value = [], PiecewiseSolution.value

    def counting(self, x):
        calls.append(x)
        return value(self, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PiecewiseSolution, "value", counting)
        return residual_scan(s, d), len(calls)


_SCHEMES_AND_RHS = [(Scheme.EXACT_LINEAR, False), (Scheme.RK4, False), (Scheme.RK4, True)]


class TestResidualScan:
    @pytest.mark.parametrize("kind", ["constant", "affine q < 1", "affine q > 1", "qscale",
                                      "moebius", "general"])
    @pytest.mark.parametrize("scheme, general", _SCHEMES_AND_RHS)
    @pytest.mark.parametrize("seed", range(3))
    def test_one_pass_matches_the_per_sample_scan(self, kind, scheme, general, seed):
        d, x0 = _scan_system(kind, general, seed)
        s = solve(d, initial_condition("sin(2*x) + 1", d.delay, x0), 2,
                  SolverConfig(scheme, step_count=16))
        got, lookups = _scan_counting_lookups(s, d)
        assert got.hex() == _residual_scan_per_sample(s, d).hex()
        # on the mesh of d's own delay every y(g(x)) comes from one sweep
        assert lookups == 0

    @pytest.mark.parametrize("scheme, general", _SCHEMES_AND_RHS)
    def test_a_mesh_of_another_delay_is_read_point_by_point(self, scheme, general):
        # meshed under constant(1), scanned against constant(0.5): g sends
        # each segment's samples into two segments
        rhs = _affine_system("constant", general, 1)[0].rhs
        meshed = Dods(rhs, ConstantDelay(1.0))
        s = solve(meshed, initial_condition("sin(2*x) + 1", meshed.delay, 0.0), 3,
                  SolverConfig(scheme, step_count=16))
        d = Dods(rhs, ConstantDelay(0.5))
        got, lookups = _scan_counting_lookups(s, d)
        assert got.hex() == _residual_scan_per_sample(s, d).hex()
        assert lookups == 3 * 48

    def test_samples_below_the_start_raise_the_same_out_of_range(self):
        d, init = smoothing_instance()
        s = solve(d, init, 2, SolverConfig(Scheme.EXACT_LINEAR, step_count=16))
        far = Dods(d.rhs, ConstantDelay(2.0))
        with pytest.raises(OutOfRange) as raised:
            residual_scan(s, far)
        with pytest.raises(OutOfRange) as expected:
            _residual_scan_per_sample(s, far)
        assert str(raised.value) == str(expected.value)

    def test_skips_history_segment(self):
        # history alone does not solve the equation; the scan must not
        # penalize it
        d, init = smoothing_instance()
        s = solve(d, init, 1, SolverConfig(Scheme.EXACT_LINEAR, step_count=512))
        assert residual_scan(s, d) <= 1e-9

    def test_non_finite_residual_raises(self):
        d, _ = smoothing_instance()
        s = sample_expr(d.delay, "1e999*x", 0.0, 2)
        with pytest.raises(DomainError, match="residual at x = .* not finite"):
            residual_scan(s, d)

    def test_flags_non_solution(self):
        # note x + 2 would NOT do here: every affine function solves
        # y' = y - y- with a unit delay
        d, _ = smoothing_instance()
        s = sample_expr(d.delay, "x^2", 0.0, 2)
        assert residual_scan(s, d) >= 0.9


def _general(text):
    return GeneralRhs(ex.parse(text, ("x", "y", "ym")))


def _general_systems():
    """(system, history, x0) of general right hand sides on every delay kind."""
    d, _ = load_spec(_GENERAL_RHS.read_text())
    yield pytest.param(d, "1 + x", 0.0, id="general_rhs.txt")
    for kind in ("constant", "affine q < 1", "affine q > 1", "qscale", "moebius", "general"):
        for seed in range(5):
            d, x0 = _scan_system(kind, True, seed)
            yield pytest.param(d, "sin(2*x) + 1", x0, id=f"{kind} {seed}")
    # sin(y) and exp(-y^2) take another y at every stage: each stage must
    # run its own copy, not an earlier stage's
    for delay, x0 in ((ConstantDelay(0.7), 0.3), (QScaleDelay(0.6), 0.4),
                      (GeneralDelay(ex.parse("x - 1 - sin(x)/10")), 0.3)):
        yield pytest.param(Dods(_general("sin(y)*ym + exp(-y^2)"), delay), "sin(2*x) + 1", x0,
                           id=f"y alone {delay.kind}")
    # a -0.0 history and a -0.0 term: every stored value and slope is a zero
    # whose sign the order of operations sets
    f = ex.Binary("+", ex.parse("sin(y) + ym*y", ("y", "ym")), ex.Num(-0.0))
    yield pytest.param(Dods(GeneralRhs(f), ConstantDelay(1.0)), ex.Num(-0.0), 0.0,
                       id="signed zeros")


class TestGeneralRk4Loop:
    """RK4 on a general right hand side gives the bits, or the error, of
    four rhs_fn calls per step."""

    @pytest.mark.parametrize("d, phi, x0", list(_general_systems()))
    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_solves_equal_the_per_point_stepper(self, d, phi, x0, m):
        init = initial_condition(phi, d.delay, x0)
        config = SolverConfig(Scheme.RK4, step_count=m)
        want = _per_point_outcome(d, init, 2, config)
        assert want[0] == "value"
        assert _solve_outcome(d, init, 2, config) == want

    @pytest.mark.parametrize("f, m, message", [
        # one step from y = 1: ln meets y2, y3 or y4 <= 0, never a node value
        ("ln(y) - 3*ym", 1, "ln of non-positive value -0.5"),
        ("ln(y) - 1.5*ym", 1, "ln of non-positive value -0.4431471805599454"),
        ("ln(y) - ym", 1, "ln of non-positive value -1.8745342424159492"),
        # exp overflows, x - 0.5625 is zero at a step midpoint, sqrt meets y > 1.2
        ("exp(40*y) - ym", 8, "overflow during evaluation: math range error"),
        ("y/(x - 0.5625)", 8, "division by zero"),
        ("sqrt(1.2 - y) + x", 8, "sqrt of negative value -0.018457535222198063"),
    ])
    def test_errors_equal_the_per_point_stepper(self, f, m, message):
        d = Dods(_general(f), ConstantDelay(1.0))
        init = initial_condition("1", d.delay, 0.0)
        config = SolverConfig(Scheme.RK4, step_count=m)
        want = _per_point_outcome(d, init, 2, config)
        assert want == (DomainError, message)
        assert _solve_outcome(d, init, 2, config) == want

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.floats(-4.0, 4.0)] * 3), st.integers(1, 8), st.integers(1, 4))
    def test_coarse_steps_equal_the_per_point_stepper(self, coefficients, m, n):
        # large coefficients on coarse steps, so a stage can overflow exp as
        # well as give a value; a general delay reads at g(x)
        wave = ex.parse("a*y*exp(y) + b*sqrt(1 + ym^2) + c*sin(5*x)",
                        ("a", "b", "c", "x", "y", "ym"))
        f = ex.substitute(wave, dict(zip("abc", map(ex.Num, coefficients))))
        d = Dods(GeneralRhs(f), GeneralDelay(ex.parse("x - 1 - sin(x)/10")))
        init = initial_condition("sin(2*x) + 1", d.delay, 0.3)
        config = SolverConfig(Scheme.RK4, step_count=m)
        assert _solve_outcome(d, init, n, config) == _per_point_outcome(d, init, n, config)
