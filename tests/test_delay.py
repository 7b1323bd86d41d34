"""Delay relations, forward meshes, and the closed form mesh points."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaysym.expr as ex
from delaysym.delay import (
    AffineDelay,
    ConstantDelay,
    DelayRelation,
    GeneralDelay,
    Mesh,
    MoebiusDelay,
    QScaleDelay,
    build_mesh,
    closed_form_point,
    parse_delay_spec,
    scale_delay,
)
from delaysym.errors import (
    DomainError,
    NoForwardPoint,
    NotMonotone,
    ParameterDomainError,
    ParseError,
)

INF = math.inf


class TestConstant:
    def test_basic(self):
        r = ConstantDelay(0.5)
        assert r.delayed_point(2.0) == 1.5
        assert r.advance(2.0) == 2.5
        assert r.derivative(1.0) == 1.0

    def test_tau_positive(self):
        with pytest.raises(ParameterDomainError):
            ConstantDelay(0.0)
        with pytest.raises(ParameterDomainError):
            ConstantDelay(-1.0)

    def test_gap_is_literal(self):
        # prolongations and the flow map rely on the gap folding to a number
        assert ConstantDelay(2.0).gap_expr() == ex.Num(2.0)

    def test_mesh(self):
        mesh = build_mesh(ConstantDelay(1.0), 0.0, 4)
        assert mesh.points == (-1.0, 0.0, 1.0, 2.0, 3.0, 4.0)


class TestAffine:
    def test_delay_check(self):
        r = AffineDelay(2.0, 1.0)
        assert r.delayed_point(0.0) == -1.0
        # (q-1)*x < tau fails at and beyond x = 1
        with pytest.raises(DomainError):
            r.delayed_point(1.0)
        with pytest.raises(DomainError):
            r.delayed_point(2.0)

    def test_advance_inverts(self):
        r = AffineDelay(0.5, 0.25)
        x = 0.8
        assert r.advance(r.delayed_point(x)) == pytest.approx(x, rel=1e-15)

    def test_identity_rejected(self):
        with pytest.raises(ParameterDomainError):
            AffineDelay(1.0, 0.0)
        with pytest.raises(ParameterDomainError):
            AffineDelay(-0.5, 1.0)

    @pytest.mark.parametrize("tau", [-1.0, -0.0, 0.0])
    def test_unit_q_needs_a_positive_tau(self, tau):
        # with q = 1 and tau <= 0 the relation delays nowhere
        with pytest.raises(ParameterDomainError,
                           match=rf"^affine delay with q = 1 needs tau > 0, got {tau!r}$"):
            AffineDelay(1.0, tau)

    def test_q1_is_constant_shift(self):
        r = AffineDelay(1.0, 0.75)
        assert r.delayed_point(3.0) == 2.25

    def test_accumulation_from_above(self):
        # q > 1: forward points converge to tau/(q-1) from below
        r = AffineDelay(2.0, 1.0)
        mesh = build_mesh(r, 0.0, 12)
        assert all(p < 1.0 for p in mesh.points)
        assert mesh.points[-1] == pytest.approx(1.0, abs=1e-3)


class TestQScale:
    def test_positive_half_line_only(self):
        r = QScaleDelay(0.5)
        assert r.delayed_point(4.0) == 2.0
        assert r.advance(2.0) == 4.0
        with pytest.raises(DomainError):
            r.delayed_point(-1.0)
        with pytest.raises(DomainError):
            r.delayed_point(0.0)

    def test_q_range(self):
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ParameterDomainError):
                QScaleDelay(bad)

    def test_mesh_geometric(self):
        mesh = build_mesh(QScaleDelay(0.5), 1.0, 3)
        assert mesh.points == pytest.approx((0.5, 1.0, 2.0, 4.0, 8.0))


class TestMoebius:
    def test_angle_subtraction(self):
        # on theta = atan(x) the relation subtracts atan(C)
        r = MoebiusDelay(1.0)
        x = 0.7
        xm = r.delayed_point(x)
        assert math.atan(x) - math.atan(xm) == pytest.approx(math.atan(1.0), rel=1e-14)

    def test_advance_inverts(self):
        r = MoebiusDelay(0.5)
        x = 1.3
        assert r.advance(r.delayed_point(x)) == pytest.approx(x, rel=1e-14)

    def test_pole_raises(self):
        r = MoebiusDelay(1.0)
        with pytest.raises(DomainError):
            r.delayed_point(-1.0)
        with pytest.raises(DomainError, match=r"^moebius relation has a pole at x = -1\.0$"):
            r.derivative(-1.0)

    def test_no_forward_point_past_pole(self):
        # advancing fails once 1 - C*x <= 0
        r = MoebiusDelay(1.0)
        with pytest.raises(NoForwardPoint):
            r.advance(1.0)
        with pytest.raises(NoForwardPoint):
            r.advance(2.0)

    def test_not_a_delay_left_of_pole(self):
        r = MoebiusDelay(1.0)
        with pytest.raises(DomainError):
            r.delayed_point(-3.0)

    def test_zero_c_rejected(self):
        with pytest.raises(ParameterDomainError):
            MoebiusDelay(0.0)

    def test_derivative_matches_fd(self):
        r = MoebiusDelay(0.8)
        x, h = 0.4, 1e-7
        fd = (r.delayed_point(x + h) - r.delayed_point(x - h)) / (2 * h)
        assert r.derivative(x) == pytest.approx(fd, rel=1e-7)


class TestGeneral:
    def test_supplied_function(self):
        r = GeneralDelay(ex.parse("x - 1 - 0.1*sin(x)"))
        x = 2.0
        xm = r.delayed_point(x)
        assert xm == pytest.approx(2.0 - 1.0 - 0.1 * math.sin(2.0))
        fwd = r.advance(x)
        assert ex.evaluate(r.g, {"x": fwd}) == pytest.approx(x, abs=1e-12)

    def test_must_delay(self):
        r = GeneralDelay(ex.parse("x + 1"))
        with pytest.raises(DomainError):
            r.delayed_point(0.0)

    def test_only_x_allowed(self):
        with pytest.raises(ParameterDomainError):
            GeneralDelay(ex.parse("x - y", ("x", "y")))

    def test_not_monotone_detected(self):
        r = GeneralDelay(ex.parse("-x"))
        with pytest.raises(NotMonotone, match="decreased between 1.0 and 2.0"):
            r.advance(1.0)

    def test_decreasing_g_fails_at_the_first_bracket_step(self):
        r = GeneralDelay(ex.parse("-0.5*x"))
        assert r.delayed_point(2.0) == -1.0
        with pytest.raises(NotMonotone, match="^delay function decreased between 2.0 and 3.0$"):
            r.advance(2.0)

    def test_no_forward_point_for_bounded_g(self):
        # g saturates below 1, so no x+ has g(x+) = 1
        r = GeneralDelay(ex.parse("-1/(1 + x^2)"))
        with pytest.raises((NoForwardPoint, NotMonotone)):
            r.advance(1.0)


def _points_outcome(delay, xs, batched):
    """delayed_points(xs) or the per-point map, as hex strings, or the type and
    message of the error raised."""
    try:
        got = delay.delayed_points(xs) if batched else list(map(delay.delayed_point, xs))
    except Exception as exc:
        return type(exc), str(exc)
    assert type(got) is list
    return [v.hex() for v in got]


_FIVE_KINDS = [ConstantDelay(0.75), AffineDelay(0.5, 0.25), QScaleDelay(0.5), MoebiusDelay(1.0),
               GeneralDelay(ex.parse("x - 1 - 0.1*sin(x)"))]


class TestDelayedPoints:
    """delayed_points(xs) is list(map(delayed_point, xs)) bit for bit, and
    raises its first error."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_FIVE_KINDS),
           st.lists(st.floats(0.01, 50.0) | st.floats(-0.99, 50.0), max_size=40))
    def test_equals_the_per_point_map(self, delay, xs):
        want = _points_outcome(delay, xs, False)
        assert _points_outcome(delay, xs, True) == want

    @pytest.mark.parametrize("delay", _FIVE_KINDS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("at", [0, 3, 7])
    def test_a_nan_abscissa_as_the_per_point_map(self, delay, at):
        xs = [0.5 + 0.25 * i for i in range(8)]
        xs[at] = math.nan
        want = _points_outcome(delay, xs, False)
        assert _points_outcome(delay, xs, True) == want
        # a constant delay takes NaN to NaN; every other kind refuses it
        assert (want[at] == "nan") if isinstance(delay, ConstantDelay) else want[0] is DomainError

    @pytest.mark.parametrize("xs, message", [
        ([0.5, 2.0, -1.0, -2.0, 3.0], "moebius relation has a pole at x = -1.0"),
        ([0.5, 2.0, -2.0, -1.0, 3.0],
         "moebius relation is not a delay at x = -2.0: needs C/(1+Cx) > 0"),
        # within the guard of the pole, not on it
        ([0.5, math.nextafter(-1.0, 0.0)],
         f"moebius relation has a pole at x = {math.nextafter(-1.0, 0.0)!r}"),
    ])
    def test_moebius_names_the_first_failing_point(self, xs, message):
        delay = MoebiusDelay(1.0)
        assert _points_outcome(delay, xs, True) == (DomainError, message)
        assert _points_outcome(delay, xs, False) == (DomainError, message)

    @pytest.mark.parametrize("xs, message", [
        # g(3) > 3 before ln(-1) fails: the column pass meets ln first, the
        # per-point order the delay check
        ([0.5, 3.0, -1.0], "supplied relation is not a delay at x = 3.0: g(x) = "),
        ([0.5, -1.0, 3.0], "ln of non-positive value -1.0"),
    ])
    def test_general_names_the_first_failing_point(self, xs, message):
        delay = GeneralDelay(ex.parse("x - 1 + 2*ln(x)"))
        want = _points_outcome(delay, xs, False)
        assert want[0] is DomainError and want[1].startswith(message)
        assert _points_outcome(delay, xs, True) == want


class TestScaleDelayFactory:
    def test_positive_fraction_is_qscale(self):
        assert isinstance(scale_delay(0.25), QScaleDelay)

    def test_negative_is_general_noninvertible(self):
        r = scale_delay(-0.5)
        assert isinstance(r, GeneralDelay)
        assert r.delayed_point(2.0) == -1.0
        with pytest.raises(NotMonotone, match="decreased between 2.0 and 3.0"):
            r.advance(2.0)

    def test_negative_survives_its_spec_string(self):
        r = scale_delay(-0.3)
        assert parse_delay_spec(r.spec_string()) == r
        assert repr(r) == ("GeneralDelay(g=Binary(op='*', left=Unary(op='neg', "
                           "child=Num(value=0.3)), right=Var(name='x')))")

    def test_rejects_non_delaying(self):
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(ParameterDomainError):
                scale_delay(bad)


@pytest.mark.parametrize("build, parameter", [
    (lambda: ConstantDelay(INF), "tau"),
    (lambda: ConstantDelay(math.nan), "tau"),
    (lambda: AffineDelay(1.0, INF), "tau"),
    (lambda: AffineDelay(2.0, math.nan), "tau"),
    (lambda: AffineDelay(INF, 1.0), "q"),
    (lambda: MoebiusDelay(math.nan), "C"),
    (lambda: MoebiusDelay(INF), "C"),
    (lambda: MoebiusDelay(-INF), "C"),
    (lambda: scale_delay(math.nan), "c"),
    (lambda: scale_delay(-INF), "c"),
])
def test_non_finite_parameters_are_refused_when_built(build, parameter):
    # they used to fail later: a mesh that does not increase, a DomainError at
    # x = 0.5 or x = inf, or a spec string that does not parse
    with pytest.raises(ParameterDomainError, match=rf"needs a finite {parameter}\b"):
        build()


class TestDefaultDomain:
    def test_each_family(self):
        assert ConstantDelay(1.0).default_domain() == (-INF, INF)
        assert AffineDelay(1.0, 2.0).default_domain() == (-INF, INF)
        assert AffineDelay(0.5, 1.0).default_domain() == (-2.0, INF)
        assert AffineDelay(2.0, 1.0).default_domain() == (-INF, 1.0)
        assert QScaleDelay(0.3).default_domain() == (0.0, INF)
        assert MoebiusDelay(2.0).default_domain() == (-0.5, INF)
        assert GeneralDelay(ex.parse("x - 1")).default_domain() == (-INF, INF)


class TestMesh:
    def test_mesh_validates_links(self):
        r = ConstantDelay(1.0)
        with pytest.raises(ParameterDomainError):
            Mesh((0.0, 1.0, 2.5), r)  # 2.5 - 1 != 1.0... g link broken
        with pytest.raises(ParameterDomainError):
            Mesh((0.0, 0.0, 1.0), r)  # not strictly increasing

    def test_build_mesh_needs_intervals(self):
        with pytest.raises(ParameterDomainError):
            build_mesh(ConstantDelay(1.0), 0.0, 0)

    def test_moebius_mesh_stops_at_pole(self):
        with pytest.raises(NoForwardPoint):
            build_mesh(MoebiusDelay(1.0), 0.9, 3)

    @pytest.mark.parametrize("relation, x0, intervals, message", [
        (ConstantDelay(1e308), 0.0, 10,
         "mesh truncated after 1 of 10 forward points: the forward point of 1e+308 is inf"),
        (AffineDelay(0.5, 1.0), 1.0, 1100,
         "mesh truncated after 1022 of 1100 forward points: "
         "the forward point of 1.348269851146737e+308 is inf"),
    ])
    def test_overflowing_chain_has_no_forward_point(self, relation, x0, intervals, message):
        with pytest.raises(NoForwardPoint) as caught:
            build_mesh(relation, x0, intervals)
        assert str(caught.value) == message

    @pytest.mark.parametrize("relation, x0, intervals, message", [
        # 2**53 + 1 rounds back to 2**53
        (ConstantDelay(1.0), 2.0**53, 1,
         "mesh truncated after 0 of 1 forward points: "
         "the forward point of 9007199254740992.0 is 9007199254740992.0"),
        # the points accumulate at tau/(q - 1) = 1 and reach it in floating point
        (AffineDelay(2.0, 1.0), 0.0, 100,
         "mesh truncated after 54 of 100 forward points: the forward point of 1.0 is 1.0"),
    ])
    def test_stalled_chain_has_no_forward_point(self, relation, x0, intervals, message):
        with pytest.raises(NoForwardPoint) as caught:
            build_mesh(relation, x0, intervals)
        assert str(caught.value) == message


class TestClosedFormPoint:
    def test_history_point(self):
        r = AffineDelay(0.5, 1.0)
        assert closed_form_point(r, 2.0, 0.0, -1) == 0.0

    def test_constant_exact(self):
        r = ConstantDelay(0.7)
        assert closed_form_point(r, 0.3, -0.4, 13) == 0.3 + 13 * 0.7

    def test_q1_exact(self):
        r = AffineDelay(1.0, 0.5)
        assert closed_form_point(r, 0.0, -0.5, 40) == 20.0

    def test_limit_point_for_contracting_mesh(self):
        # q = 2, tau = 1: meshes accumulate at tau/(q-1) = 1
        r = AffineDelay(2.0, 1.0)
        x50 = closed_form_point(r, 0.0, -1.0, 50)
        assert abs(x50 - 1.0) <= 1e-14

    def test_rejects_inconsistent_history(self):
        r = AffineDelay(2.0, 1.0)
        with pytest.raises(ParameterDomainError):
            closed_form_point(r, 0.0, -0.5, 3)

    @pytest.mark.parametrize("relation, x0, x_minus1, n, error, message", [
        (QScaleDelay(0.5), -1.0, -0.5, 2, DomainError,
         "scale relation delays only on x > 0, got x = -1.0"),
        (AffineDelay(2.0, 1.0), 5.0, 9.0, 2, DomainError,
         "affine relation is not a delay at x = 5.0: needs (q-1)*x < tau"),
        (AffineDelay(0.5, 1.0), math.inf, math.inf, 2, ParameterDomainError,
         "x0 must be finite, got inf"),
        (AffineDelay(0.5, 1.0), 2.0, 0.0, 2.5, ParameterDomainError,
         "n must be an integer >= -1, got 2.5"),
        (AffineDelay(0.5, 1.0), 2.0, 0.0, -2, ParameterDomainError,
         "n must be an integer >= -1, got -2"),
        (AffineDelay(0.5, 1.0), 1.0, -0.5, 1100, NoForwardPoint,  # q**-n overflows
         "mesh point 1100 from x0 = 1.0 is not finite: inf"),
        (QScaleDelay(0.5), 1.0, 0.5, 2000, NoForwardPoint,
         "mesh point 2000 from x0 = 1.0 is not finite: inf"),
        (ConstantDelay(1e308), 0.0, -1e308, 10, NoForwardPoint,  # x0 + n*tau rounds to inf
         "mesh point 10 from x0 = 0.0 is not finite: inf"),
    ])
    def test_rejects_what_build_mesh_rejects(self, relation, x0, x_minus1, n, error, message):
        with pytest.raises(error) as caught:
            closed_form_point(relation, x0, x_minus1, n)
        assert type(caught.value) is error and str(caught.value) == message

    def test_rejects_non_affine(self):
        with pytest.raises(ParameterDomainError):
            closed_form_point(MoebiusDelay(1.0), 0.5, MoebiusDelay(1.0).delayed_point(0.5), 2)

    def test_agrees_with_iterated_mesh(self):
        rng = random.Random(11)
        for _ in range(20):
            q = rng.uniform(0.2, 2.5)
            tau = rng.uniform(0.1, 3.0)
            x0 = rng.uniform(-1.0, 1.0)
            if q > 1 and x0 >= tau / (q - 1):
                x0 = tau / (q - 1) - 1.0
            elif q < 1 and x0 <= -tau / (1 - q) + 0.05:
                x0 = -tau / (1 - q) + 1.0
            r = AffineDelay(q, tau)
            mesh = build_mesh(r, x0, rng.randint(1, 30))
            xm1 = r.delayed_point(x0)
            for i, p in enumerate(mesh.points):
                c = closed_form_point(r, x0, xm1, i - 1)
                assert abs(c - p) <= 1e-12 * (1.0 + abs(p))

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.floats(0.3, 2.0),
        tau=st.floats(0.1, 2.0),
        n=st.integers(1, 12),
    )
    def test_property_chain_consistency(self, q, tau, n):
        r = AffineDelay(q, tau)
        x0 = 0.0 if q <= 1 else min(0.0, tau / (q - 1) - 1.0)
        mesh = build_mesh(r, x0, n)
        xm1 = r.delayed_point(x0)
        # every interior point delays onto its predecessor
        for a, b in zip(mesh.points, mesh.points[1:]):
            assert r.delayed_point(b) == pytest.approx(a, rel=1e-12, abs=1e-12)
        c = closed_form_point(r, x0, xm1, n)
        assert c == pytest.approx(mesh.points[-1], rel=1e-12, abs=1e-12)


class TestParseDelaySpec:
    @pytest.mark.parametrize(
        "text,cls",
        [
            ("constant(1)", ConstantDelay),
            ("affine(0.5, 1.0)", AffineDelay),
            ("qscale(0.25)", QScaleDelay),
            ("moebius(2)", MoebiusDelay),
            ('general("x - 1 - 0.1*sin(x)")', GeneralDelay),
        ],
    )
    def test_families(self, text, cls):
        assert isinstance(parse_delay_spec(text), cls)

    def test_round_trip_through_spec_string(self):
        for text in ("constant(0.5)", "affine(2.0, 1.0)", "qscale(0.75)", "moebius(1.0)"):
            r = parse_delay_spec(text)
            again = parse_delay_spec(r.spec_string())
            assert again == r

    def test_general_round_trip(self):
        r = parse_delay_spec('general("x - 2")')
        assert parse_delay_spec(r.spec_string()).g == r.g

    def test_bad_forms(self):
        with pytest.raises((ParseError, ParameterDomainError)):
            parse_delay_spec("nosuch(1)")
        with pytest.raises((ParseError, ParameterDomainError)):
            parse_delay_spec("constant()")
        with pytest.raises((ParseError, ParameterDomainError)):
            parse_delay_spec("constant(-1)")

    @pytest.mark.parametrize("relation,text", [
        (ConstantDelay(1), "constant(1)"),
        (AffineDelay(2, 1), "affine(2, 1)"),
        (QScaleDelay(0.5), "qscale(0.5)"),
        (MoebiusDelay(-3), "moebius(-3)"),
        (ConstantDelay(0.1), "constant(0.1)"),
    ])
    def test_each_kind_prints_its_fields_and_reads_back(self, relation, text):
        assert relation.spec_string() == text
        assert parse_delay_spec(text) == relation

    @pytest.mark.parametrize("text, error", [
        ("constant1", "cannot parse delay specification 'constant1'"),
        ("constant(x)", "bad numeric arguments in delay spec 'constant(x)'"),
    ])
    def test_malformed_spec_names_its_fault(self, text, error):
        with pytest.raises(ParameterDomainError) as raised:
            parse_delay_spec(text)
        assert str(raised.value) == error

    @pytest.mark.parametrize("text", ["constant()", "constant(1, 2)", "affine(1)",
                                      "qscale(0.5, 1)", "moebius()"])
    def test_wrong_argument_count(self, text):
        with pytest.raises(ParameterDomainError, match="unknown delay specification"):
            parse_delay_spec(text)

    def test_a_subclass_prints_its_parent_kind(self):
        class Late(ConstantDelay):
            pass

        assert Late(0.5).spec_string() == "constant(0.5)"
        with pytest.raises(NotImplementedError):
            DelayRelation().spec_string()


_KINDS = [ConstantDelay(1.0), AffineDelay(0.8, 0.5), QScaleDelay(0.5), MoebiusDelay(1.0),
          GeneralDelay(ex.parse("x - 1"))]


class TestNonFiniteStart:
    # every delay kind refuses a start that is not finite before it takes
    # g(x0), with one message, where each used to fail its own way
    @pytest.mark.parametrize("relation", _KINDS, ids=lambda r: r.spec_string())
    @pytest.mark.parametrize("x0", [math.nan, INF, -INF], ids=repr)
    def test_build_mesh_and_initial_condition_refuse_it(self, relation, x0):
        from delaysym.dods import initial_condition
        for build in (lambda: build_mesh(relation, x0, 2),
                      lambda: initial_condition("x + 1", relation, x0)):
            with pytest.raises(ParameterDomainError) as caught:
                build()
            assert str(caught.value) == f"x0 must be finite, got {x0!r}"
